package distributed

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

// Streaming sessions are how a site ships to the coordinator; a site
// stays connected indefinitely:
//
//	hello       → ok            open the session (coins are verified once)
//	updateBatch → ack           raw ⟨stream, elem, ±v⟩ updates, sketched centrally
//	delta       → ack           locally sketched synopsis delta, merged by linearity
//	heartbeat   → ack           keep-alive / liveness probe
//	watch       → ok, result*   standing continuous queries; the server then
//	                            pushes a result frame per expression per round
//
// Every session frame carries a client sequence number echoed in the
// ack, so a site can pipeline-and-verify. Deltas additionally report
// how many local updates they summarize, keeping the coordinator's
// update-count watch triggers accurate in delta mode.
//
// Session frames are encoded with the hand-rolled binary codec
// (codec.go) rather than gob, and both ends run them through reusable
// per-connection scratch buffers: a steady-state session neither
// allocates to encode/decode an update batch, delta envelope, heartbeat
// or ack, nor to read the frames off the wire.

// defaultWatchWriteTimeout bounds how long a watch-result write may
// block on a stalled client before the session is torn down.
const defaultWatchWriteTimeout = 10 * time.Second

type helloMsg struct {
	Site   string
	Config core.Config
	Seed   uint64
	Copies int
}

type watchMsg struct {
	Exprs          []string
	Views          []string
	Eps            float64
	EveryUpdates   uint64
	IntervalMillis int64
}

type watchResultMsg struct {
	Expr    string
	View    string
	Group   string
	Epoch   uint64
	Updates uint64
	Delta   float64
	Err     string
	Est     estimateMsg
}

// connState is the per-connection state of the server: a write mutex
// shared by the request/reply path and the watch pusher, the
// streaming-session identity once a hello has been accepted, and the
// scratch buffers that make the session hot path allocation-free. fr,
// abuf, ups, and names belong to the handler goroutine; wframe is
// guarded by wmu.
type connState struct {
	srv  *Server
	conn net.Conn

	wmu    sync.Mutex
	wframe []byte // whole-frame build buffer, one conn.Write per frame

	fr    frameReader      // inbound frame payload buffer
	abuf  []byte           // ack payload scratch
	ups   []datagen.Update // update-batch decode scratch
	names interner         // stream names seen on this connection

	site     string
	open     bool
	accepted uint64
	// app is this session's private apply path (digest scratch +
	// coalesce buffers), created at hello so concurrent sessions never
	// serialize on shared scratch.
	app *Applier

	watcher *Watcher
	watchWG sync.WaitGroup
}

func (st *connState) write(typ byte, payload []byte) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	return st.writeLocked(typ, payload)
}

// writeLocked frames the payload into the connection's write buffer and
// ships it with a single conn.Write.
// caller holds: wmu
func (st *connState) writeLocked(typ byte, payload []byte) error {
	frame, err := appendFrame(st.wframe[:0], typ, payload)
	st.wframe = frame[:0]
	if err != nil {
		return err
	}
	if _, err := st.conn.Write(frame); err != nil {
		return err
	}
	st.srv.met.out(typ).Inc()
	return nil
}

// writeDeadline writes one frame under a deadline, so a stalled peer
// cannot pin the pusher goroutine (and the frame mutex) forever.
func (st *connState) writeDeadline(typ byte, payload []byte, d time.Duration) error {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if d > 0 {
		st.conn.SetWriteDeadline(time.Now().Add(d))
		defer st.conn.SetWriteDeadline(time.Time{})
	}
	return st.writeLocked(typ, payload)
}

func (st *connState) cleanup() {
	if st.watcher != nil {
		st.watcher.Close()
	}
	st.conn.Close()
	st.watchWG.Wait()
}

func failReply(err error) ([]byte, byte) {
	out, encErr := encodeGob(errorMsg{Message: err.Error()})
	if encErr != nil {
		return nil, msgError
	}
	return out, msgError
}

func (st *connState) ackReply(seq uint64) ([]byte, byte) {
	st.abuf = appendAck(st.abuf[:0], seq, st.accepted)
	return st.abuf, msgAck
}

// handleHello opens a streaming session after verifying the stored
// coins once, so every subsequent delta merges without re-checking and
// raw updates are sketched with hash functions the site agrees on.
func (s *Server) handleHello(st *connState, payload []byte) ([]byte, byte) {
	var m helloMsg
	if err := decodeGob(payload, &m); err != nil {
		return failReply(err)
	}
	want := s.coord.Coins()
	if m.Config != want.Config || m.Seed != want.Seed || m.Copies != want.Copies {
		return failReply(fmt.Errorf("stored-coins mismatch: session %+v vs coordinator %+v",
			Coins{Config: m.Config, Seed: m.Seed, Copies: m.Copies}, want))
	}
	if m.Site == "" {
		return failReply(fmt.Errorf("streaming session needs a site name"))
	}
	st.site = m.Site
	st.open = true
	st.app = s.coord.NewApplier()
	s.mu.Lock()
	seen := s.seenSites[m.Site]
	s.seenSites[m.Site]++
	s.mu.Unlock()
	s.met.sessionsOpened.Inc()
	if seen > 0 {
		s.met.sessionReopens.Inc()
		s.log.Info("session reopened", "site", m.Site, "prior_sessions", seen)
	} else {
		s.log.Info("session opened", "site", m.Site)
	}
	return nil, msgOK
}

func (st *connState) requireSession() error {
	if !st.open {
		return fmt.Errorf("no streaming session: send hello first")
	}
	return nil
}

func (s *Server) handleUpdateBatch(st *connState, payload []byte) ([]byte, byte) {
	if err := st.requireSession(); err != nil {
		return failReply(err)
	}
	// Decode into the connection's scratch slice: ApplyUpdates copies
	// what it keeps (coalesced WAL entries or direct counter updates),
	// so the scratch is free for reuse as soon as it returns.
	seq, ups, err := decodeUpdateBatch(payload, st.ups[:0], st.names.intern)
	st.ups = ups[:0]
	if err != nil {
		return failReply(err)
	}
	if err := st.app.ApplyUpdates(st.site, ups); err != nil {
		return failReply(err)
	}
	st.accepted += uint64(len(ups))
	return st.ackReply(seq)
}

func (s *Server) handleDelta(st *connState, payload []byte) ([]byte, byte) {
	if err := st.requireSession(); err != nil {
		return failReply(err)
	}
	seq, count, stream, synopsis, err := decodeDelta(payload)
	if err != nil {
		return failReply(err)
	}
	fam, err := core.DecodeFamily(synopsis)
	if err != nil {
		return failReply(err)
	}
	if err := s.coord.ApplyDelta(st.site, st.names.intern(stream), fam, count); err != nil {
		return failReply(err)
	}
	st.accepted += count
	return st.ackReply(seq)
}

func (s *Server) handleHeartbeat(st *connState, payload []byte) ([]byte, byte) {
	seq, err := decodeHeartbeat(payload)
	if err != nil {
		return failReply(err)
	}
	s.met.heartbeats.Inc()
	return st.ackReply(seq)
}

// handleWatch registers the continuous queries and dedicates this
// connection to streaming their results. It writes the ok reply itself
// before the pusher starts, so the client never sees a result frame
// ahead of the registration reply.
func (s *Server) handleWatch(st *connState, payload []byte) ([]byte, byte) {
	if st.watcher != nil {
		return failReply(fmt.Errorf("watch already registered on this connection"))
	}
	var m watchMsg
	if err := decodeGob(payload, &m); err != nil {
		return failReply(err)
	}
	w, err := s.coord.Watch(WatchSpec{
		Exprs:        m.Exprs,
		Views:        m.Views,
		Eps:          m.Eps,
		EveryUpdates: m.EveryUpdates,
		Interval:     time.Duration(m.IntervalMillis) * time.Millisecond,
	})
	if err != nil {
		return failReply(err)
	}
	if err := st.write(msgOK, nil); err != nil {
		w.Close()
		return nil, 0
	}
	st.watcher = w
	st.watchWG.Add(1)
	s.watchWG.Add(1)
	go s.pushWatchResults(st, w)
	return nil, 0
}

// pushWatchResults forwards watcher results to the connection until
// the watcher closes (slow consumer, coordinator shutdown) or the
// write path fails.
func (s *Server) pushWatchResults(st *connState, w *Watcher) {
	defer st.watchWG.Done()
	defer s.watchWG.Done()
	timeout := s.WatchWriteTimeout
	if timeout <= 0 {
		timeout = defaultWatchWriteTimeout
	}
	for res := range w.C {
		out, err := encodeGob(watchResultMsg{
			Expr:    res.Expr,
			View:    res.View,
			Group:   res.Group,
			Epoch:   res.Epoch,
			Updates: res.Updates,
			Delta:   res.Delta,
			Err:     res.Err,
			Est: estimateMsg{
				Value: res.Est.Value, Level: res.Est.Level, Copies: res.Est.Copies,
				Valid: res.Est.Valid, Witnesses: res.Est.Witnesses, Union: res.Est.Union,
				StdError: res.Est.StdError,
			},
		})
		if err != nil {
			continue
		}
		if err := st.writeDeadline(msgWatchResult, out, timeout); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.met.watchTimeouts.Inc()
				s.log.Warn("watch client stalled: result write timed out",
					"remote", st.conn.RemoteAddr().String(), "timeout", timeout.String())
			}
			w.Close()
			return
		}
	}
	// The hub closed the channel (e.g. slow consumer): tell the client
	// why before the connection goes quiet.
	if reason := w.Reason(); reason != "closed" {
		s.log.Warn("watch terminated", "remote", st.conn.RemoteAddr().String(), "reason", reason)
		if out, err := encodeGob(errorMsg{Message: "watch terminated: " + reason}); err == nil {
			st.writeDeadline(msgError, out, timeout)
		}
	}
}

// StreamSession is the client side of a streaming session: after the
// hello handshake a site stays connected and interleaves raw update
// batches, locally sketched deltas, and heartbeats for as long as it
// likes. A session shares its Client's serialization; use one session
// per Client. Session frames are built in a reusable scratch buffer, so
// a steady-state sender allocates nothing per frame.
type StreamSession struct {
	c    *Client
	site string

	mu   sync.Mutex
	seq  uint64
	pbuf []byte // frame build scratch
}

// OpenStream performs the hello handshake and returns the session.
// The coins must match the coordinator's exactly.
func (c *Client) OpenStream(site string, coins Coins) (*StreamSession, error) {
	payload, err := encodeGob(helloMsg{Site: site, Config: coins.Config, Seed: coins.Seed, Copies: coins.Copies})
	if err != nil {
		return nil, err
	}
	typ, reply, err := c.roundTrip(msgHello, payload)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgOK:
		return &StreamSession{c: c, site: site}, nil
	case msgError:
		return nil, remoteError(reply)
	default:
		return nil, fmt.Errorf("distributed: unexpected reply type %#x to hello", typ)
	}
}

// Site returns the session's site name.
func (s *StreamSession) Site() string { return s.site }

// beginFrame starts a session frame of the given type in the scratch
// buffer, claiming the next sequence number.
// caller holds: mu
func (s *StreamSession) beginFrame(typ byte) (frame []byte, seq uint64) {
	s.seq++
	return append(s.pbuf[:0], typ, 0, 0, 0, 0), s.seq
}

// exchange finalizes the frame, sends it, and decodes the binary ack.
// caller holds: mu (released only after the reply is decoded, so the
// scratch buffers are never shared between in-flight frames)
func (s *StreamSession) exchange(frame []byte, seq uint64) (uint64, error) {
	s.pbuf = frame[:0]
	frame, err := finishFrame(frame)
	if err != nil {
		return 0, err
	}
	return s.c.sessionExchange(frame, seq)
}

// SendUpdates ships one batch of raw updates for the coordinator to
// sketch centrally. It returns the session's accepted-update total.
func (s *StreamSession) SendUpdates(ups []datagen.Update) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, seq := s.beginFrame(msgUpdateBatch)
	frame = appendUpdateBatch(frame, seq, ups)
	return s.exchange(frame, seq)
}

// SendDelta ships one locally sketched synopsis delta, merged by
// linearity at the coordinator. count reports how many local updates
// the delta summarizes (for the coordinator's watch triggers).
func (s *StreamSession) SendDelta(stream string, fam *core.Family, count uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, seq := s.beginFrame(msgDelta)
	frame = appendDeltaHeader(frame, seq, stream, count)
	frame = fam.AppendTo(frame)
	return s.exchange(frame, seq)
}

// SendFlush ships every stream of a flush (e.g. ingest.Engine.Flush),
// in sorted order for reproducibility, crediting totalCount updates to
// the first delta.
func (s *StreamSession) SendFlush(deltas map[string]*core.Family, totalCount uint64) error {
	names := make([]string, 0, len(deltas))
	for name := range deltas {
		names = append(names, name)
	}
	sort.Strings(names)
	count := totalCount
	for _, name := range names {
		if _, err := s.SendDelta(name, deltas[name], count); err != nil {
			return fmt.Errorf("stream %q: %w", name, err)
		}
		count = 0
	}
	return nil
}

// Heartbeat probes session liveness and returns the accepted-update
// total.
func (s *StreamSession) Heartbeat() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	frame, seq := s.beginFrame(msgHeartbeat)
	frame = appendHeartbeat(frame, seq)
	return s.exchange(frame, seq)
}

// WatchEvent is one continuous-query result delivered to a watching
// client. Exactly one of Expr and View is set: Expr for a standing
// set-expression result, View (plus Group for grouped views) for a
// continuous-view result.
type WatchEvent struct {
	Expr    string
	View    string // continuous view this result belongs to, if any
	Group   string // group key within the view ("" for ungrouped views)
	Epoch   uint64
	Updates uint64
	Est     core.Estimate
	Delta   float64 // ISTREAM views only: change in Est.Value since the last emit
	Err     string  // per-round evaluation error, or terminal session error
	// Terminal marks the last event of the stream: the server ended the
	// watch (Err carries its reason — e.g. a slow-consumer drop or
	// coordinator shutdown) or the connection failed. No further events
	// follow; the channel closes next.
	Terminal bool
}

// WatchRequest describes a watch registration: standing set
// expressions and/or continuous views (registered earlier with
// CreateView) whose results stream back on this connection.
type WatchRequest struct {
	Exprs        []string      // set expressions evaluated each round
	Views        []string      // continuous views evaluated each round
	Eps          float64       // target standard error (0 = coordinator default)
	EveryUpdates uint64        // fire a round after this many accepted updates
	Interval     time.Duration // also fire on this wall-clock period
}

// Watch registers standing continuous queries and dedicates this
// client's connection to the result stream: the returned channel
// yields one event per expression per evaluation round until the
// server drops the watch or the connection closes. every triggers a
// round after that many accepted updates; interval adds wall-clock
// rounds; either may be zero. To watch continuous views, use
// Subscribe.
//
// Results are delivered through bounded queues at both ends — the
// coordinator's per-watcher queue and this channel — and the
// coordinator never blocks on a watcher: a client that stops reading
// loses rounds, and past the coordinator's MaxDrops consecutive
// losses the watch is dropped server-side. The stream then ends with
// one final event carrying Terminal=true and the server's reason in
// Err ("watch terminated: slow consumer: ..."), after which the
// channel closes. A connection failure likewise yields a terminal
// event (including after a local Close, where the reason is the local
// read error).
func (c *Client) Watch(exprs []string, eps float64, every uint64, interval time.Duration) (<-chan WatchEvent, error) {
	return c.Subscribe(WatchRequest{Exprs: exprs, Eps: eps, EveryUpdates: every, Interval: interval})
}

// Subscribe is the general form of Watch: it registers any mix of set
// expressions and continuous views. Grouped views yield one event per
// live group per round; ISTREAM views emit only groups whose estimate
// changed, with the change in the event's Delta field.
func (c *Client) Subscribe(req WatchRequest) (<-chan WatchEvent, error) {
	payload, err := encodeGob(watchMsg{
		Exprs:          req.Exprs,
		Views:          req.Views,
		Eps:            req.Eps,
		EveryUpdates:   req.EveryUpdates,
		IntervalMillis: int64(req.Interval / time.Millisecond),
	})
	if err != nil {
		return nil, err
	}
	typ, reply, err := c.roundTrip(msgWatch, payload)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgOK:
	case msgError:
		return nil, remoteError(reply)
	default:
		return nil, fmt.Errorf("distributed: unexpected reply type %#x to watch", typ)
	}
	c.mu.Lock()
	c.watching = true
	c.mu.Unlock()
	ch := make(chan WatchEvent, 32)
	go func() {
		defer close(ch)
		// terminal delivers the final event without ever blocking: an
		// abandoned consumer must not leak this goroutine.
		terminal := func(reason string) {
			select {
			case ch <- WatchEvent{Err: reason, Terminal: true}:
			default:
			}
		}
		for {
			typ, payload, err := readFrame(c.conn)
			if err != nil {
				terminal("watch stream closed: " + err.Error())
				return
			}
			switch typ {
			case msgWatchResult:
				var m watchResultMsg
				if err := decodeGob(payload, &m); err != nil {
					terminal("undecodable watch result: " + err.Error())
					return
				}
				ch <- WatchEvent{
					Expr:    m.Expr,
					View:    m.View,
					Group:   m.Group,
					Epoch:   m.Epoch,
					Updates: m.Updates,
					Delta:   m.Delta,
					Err:     m.Err,
					Est: core.Estimate{
						Value: m.Est.Value, Level: m.Est.Level, Copies: m.Est.Copies,
						Valid: m.Est.Valid, Witnesses: m.Est.Witnesses, Union: m.Est.Union,
						StdError: m.Est.StdError,
					},
				}
			case msgError:
				var m errorMsg
				if err := decodeGob(payload, &m); err != nil {
					terminal("undecodable watch error frame: " + err.Error())
				} else {
					terminal(m.Message)
				}
				return
			default:
				terminal(fmt.Sprintf("unexpected frame type %#x in watch stream", typ))
				return
			}
		}
	}()
	return ch, nil
}
