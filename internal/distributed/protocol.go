package distributed

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/obs"
)

// Wire protocol between sites, query clients, and the coordinator:
// length-prefixed frames over TCP. Each frame is
//
//	type   u8
//	length u32 (big-endian, payload bytes)
//	payload
//
// Control payloads are gob-encoded message structs; the session hot
// path (update batches, deltas, heartbeats, acks) uses the hand-rolled
// binary codec in codec.go. Synopsis bytes inside a delta are the core
// serialization format (with its own checksum). Every request frame
// receives exactly one reply frame. Type 0x01 carried the retired
// one-shot synopsis push and is not reused.

const (
	msgQuery       = 0x02 // queryMsg: estimate a set expression
	msgStreams     = 0x03 // no payload: list merged stream names
	msgHello       = 0x04 // helloMsg: open a streaming session (stream.go)
	msgUpdateBatch = 0x05 // binary update batch within a session (codec.go)
	msgDelta       = 0x06 // binary counted synopsis delta within a session (codec.go)
	msgHeartbeat   = 0x07 // binary session keep-alive (codec.go)
	msgWatch       = 0x08 // watchMsg: register standing continuous queries
	msgCreateView  = 0x09 // createViewMsg: register a continuous view
	msgDropView    = 0x0a // dropViewMsg: remove a continuous view
	msgListViews   = 0x0b // no payload: list the view catalog
	msgOK          = 0x10 // empty reply to a successful hello/watch/view change
	msgEstimate    = 0x11 // estimateMsg reply to a query
	msgNames       = 0x12 // namesMsg reply to a streams request
	msgAck         = 0x13 // binary ack: session frame accepted (codec.go)
	msgWatchResult = 0x14 // watchResultMsg: streamed continuous-query result
	msgViews       = 0x15 // viewsMsg reply to a list-views request
	msgError       = 0x7f // errorMsg: request failed
)

// maxFrame bounds payload size to keep a malicious or corrupt peer
// from forcing huge allocations.
const maxFrame = 64 << 20

// drainTimeout bounds how long a shutdown waits for an in-flight
// reply write to a stalled peer before the write fails and the
// handler returns. The coordinator-side work of a dispatch (WAL
// append, state mutation) is local and always runs to completion;
// only the ack write to the network is subject to this bound.
const drainTimeout = 5 * time.Second

type queryMsg struct {
	Expr string
	Eps  float64
}

type estimateMsg struct {
	Value     float64
	Level     int
	Copies    int
	Valid     int
	Witnesses int
	Union     float64
	StdError  float64
}

type namesMsg struct{ Names []string }

type createViewMsg struct{ Statement string }

type dropViewMsg struct{ Name string }

type viewsMsg struct{ Statements []string }

type errorMsg struct{ Message string }

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("distributed: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("distributed: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// Server exposes a Coordinator over TCP.
type Server struct {
	coord *Coordinator

	// WatchWriteTimeout bounds each watch-result write to a client; a
	// peer that stalls longer has its watch session torn down so it
	// cannot pin server resources. Zero selects a 10s default. Set
	// before Serve.
	WatchWriteTimeout time.Duration

	// IdleTimeout, when positive, arms a read deadline on open
	// streaming sessions (watch connections excluded — they only
	// receive): a session that sends no frame — not even a heartbeat —
	// within the window is torn down and counted as a heartbeat miss.
	// Zero (the default) disables liveness enforcement. Set before
	// Serve.
	IdleTimeout time.Duration

	met *serverMetrics
	log *obs.Logger

	watchWG sync.WaitGroup // live watch pusher goroutines
	connWG  sync.WaitGroup // live connection handler goroutines

	mu        sync.Mutex
	listener  net.Listener
	conns     map[net.Conn]struct{}
	seenSites map[string]int // hello count per site, to spot reconnects
	closed    bool
}

// NewServer wraps a coordinator for network serving.
func NewServer(coord *Coordinator) *Server {
	return &Server{
		coord:     coord,
		conns:     make(map[net.Conn]struct{}),
		seenSites: make(map[string]int),
		met:       newServerMetrics(nil),
	}
}

// SetObservability attaches a metrics registry and logger to the
// server, exporting the stream_* series documented in OPERATIONS.md.
// Call it once, before Serve; either argument may be nil. It does not
// instrument the wrapped coordinator — call the coordinator's own
// SetObservability for the coord_*/watch_* series.
func (s *Server) SetObservability(reg *obs.Registry, log *obs.Logger) {
	s.met = newServerMetrics(reg)
	s.log = log.Named("server")
	reg.GaugeFunc("stream_connections",
		"Currently open client connections.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.conns))
		})
}

// frameTypeName names each wire frame type for the per-type frame
// counters; requests and replies are disjoint sets.
var requestTypeNames = map[byte]string{
	msgQuery:       "query",
	msgStreams:     "streams",
	msgHello:       "hello",
	msgUpdateBatch: "update_batch",
	msgDelta:       "delta",
	msgHeartbeat:   "heartbeat",
	msgWatch:       "watch",
	msgCreateView:  "create_view",
	msgDropView:    "drop_view",
	msgListViews:   "list_views",
}

var replyTypeNames = map[byte]string{
	msgOK:          "ok",
	msgEstimate:    "estimate",
	msgNames:       "names",
	msgAck:         "ack",
	msgWatchResult: "watch_result",
	msgViews:       "views",
	msgError:       "error",
}

// serverMetrics is the server's instrument set; with a nil registry
// every instrument still works, it is just never collected.
type serverMetrics struct {
	framesIn   map[byte]*obs.Counter
	framesOut  map[byte]*obs.Counter
	inUnknown  *obs.Counter
	outUnknown *obs.Counter

	handleSeconds   *obs.Histogram
	connsTotal      *obs.Counter
	sessionsOpened  *obs.Counter
	sessionReopens  *obs.Counter
	heartbeats      *obs.Counter
	heartbeatMisses *obs.Counter
	watchTimeouts   *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	const (
		helpIn  = "Frames received from clients, by frame type."
		helpOut = "Frames sent to clients, by frame type."
	)
	m := &serverMetrics{
		framesIn:  make(map[byte]*obs.Counter, len(requestTypeNames)),
		framesOut: make(map[byte]*obs.Counter, len(replyTypeNames)),
	}
	for typ, name := range requestTypeNames {
		m.framesIn[typ] = reg.Counter(obs.Label("stream_frames_received_total", "type", name), helpIn)
	}
	for typ, name := range replyTypeNames {
		m.framesOut[typ] = reg.Counter(obs.Label("stream_frames_sent_total", "type", name), helpOut)
	}
	m.inUnknown = reg.Counter(obs.Label("stream_frames_received_total", "type", "unknown"), helpIn)
	m.outUnknown = reg.Counter(obs.Label("stream_frames_sent_total", "type", "unknown"), helpOut)
	m.handleSeconds = reg.Histogram("stream_handle_seconds",
		"Request dispatch-to-reply latency (the server side of session ack latency).", nil)
	m.connsTotal = reg.Counter("stream_connections_total",
		"Client connections accepted since start.")
	m.sessionsOpened = reg.Counter("stream_sessions_opened_total",
		"Streaming sessions opened (hello frames accepted).")
	m.sessionReopens = reg.Counter("stream_session_reopens_total",
		"Sessions opened by a site that had a session before (reconnects).")
	m.heartbeats = reg.Counter("stream_heartbeats_total",
		"Session heartbeat frames handled.")
	m.heartbeatMisses = reg.Counter("stream_heartbeat_misses_total",
		"Sessions torn down because no frame arrived within IdleTimeout.")
	m.watchTimeouts = reg.Counter("stream_watch_write_timeouts_total",
		"Watch-result writes abandoned after WatchWriteTimeout (stalled watch clients).")
	return m
}

func (m *serverMetrics) in(typ byte) *obs.Counter {
	if c, ok := m.framesIn[typ]; ok {
		return c
	}
	return m.inUnknown
}

func (m *serverMetrics) out(typ byte) *obs.Counter {
	if c, ok := m.framesOut[typ]; ok {
		return c
	}
	return m.outUnknown
}

// Serve accepts connections on l until Close is called. It returns nil
// after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("distributed: server already closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.connWG.Wait()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			s.connWG.Wait()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting and shuts down in phases. Watchers are
// dropped first — registered directly on the coordinator or through
// the protocol — so watch clients receive a terminal "coordinator
// shutting down" frame (bounded by WatchWriteTimeout per stalled
// client) instead of a silent connection reset. Then in-flight
// sessions are drained: pending reads are expired immediately, but a
// handler mid-dispatch finishes applying — and, with a WAL attached,
// logging — and acking its frame (ack writes bounded by drainTimeout)
// before its connection goes away. Only after every handler has
// returned are remaining connections torn down, so no accepted frame
// is ever half-processed by a clean shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	s.mu.Unlock()
	s.coord.CloseWatchers("coordinator shutting down")
	s.watchWG.Wait()
	s.mu.Lock()
	now := time.Now()
	for conn := range s.conns {
		conn.SetReadDeadline(now)
		conn.SetWriteDeadline(now.Add(drainTimeout))
	}
	s.mu.Unlock()
	s.connWG.Wait()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	return err
}

func (s *Server) handle(conn net.Conn) {
	st := &connState{srv: s, conn: conn}
	defer st.cleanup()
	s.met.connsTotal.Inc()
	s.log.Debug("connection opened", "remote", conn.RemoteAddr().String())
	for {
		// Arm the idle deadline under s.mu so it cannot race Close's
		// drain deadline: once closed is set, nothing re-arms, and the
		// next read fails immediately instead of idling out the drain.
		s.mu.Lock()
		closed := s.closed
		if !closed && s.IdleTimeout > 0 && st.open && st.watcher == nil {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		s.mu.Unlock()
		if closed {
			return
		}
		// The payload views the connection's reusable read buffer;
		// handlers copy anything they keep past dispatch.
		typ, payload, err := st.fr.read(conn)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() && !s.closing() {
				s.met.heartbeatMisses.Inc()
				s.log.Warn("session idle timeout: no frame (not even a heartbeat) within deadline",
					"site", st.site, "timeout", s.IdleTimeout.String())
			}
			return // EOF, broken peer, or shutdown drain; nothing to answer
		}
		s.met.in(typ).Inc()
		start := time.Now()
		reply, replyType := s.dispatch(st, typ, payload)
		if replyType == 0 {
			continue // handler already wrote its own frames
		}
		err = st.write(replyType, reply)
		s.met.handleSeconds.ObserveSince(start)
		if err != nil {
			return
		}
	}
}

// closing reports whether Close has begun, so the drain's expired
// read deadlines are not miscounted as heartbeat misses.
func (s *Server) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dispatch executes one request and produces the reply frame. st
// carries the connection's streaming-session state; a replyType of 0
// means the handler wrote its own reply.
func (s *Server) dispatch(st *connState, typ byte, payload []byte) (reply []byte, replyType byte) {
	fail := func(err error) ([]byte, byte) {
		out, encErr := encodeGob(errorMsg{Message: err.Error()})
		if encErr != nil {
			return nil, msgError
		}
		return out, msgError
	}
	switch typ {
	case msgQuery:
		var m queryMsg
		if err := decodeGob(payload, &m); err != nil {
			return fail(err)
		}
		est, err := s.coord.Estimate(m.Expr, m.Eps)
		if err != nil {
			return fail(err)
		}
		out, err := encodeGob(estimateMsg{
			Value: est.Value, Level: est.Level, Copies: est.Copies,
			Valid: est.Valid, Witnesses: est.Witnesses, Union: est.Union,
			StdError: est.StdError,
		})
		if err != nil {
			return fail(err)
		}
		return out, msgEstimate
	case msgStreams:
		out, err := encodeGob(namesMsg{Names: s.coord.Streams()})
		if err != nil {
			return fail(err)
		}
		return out, msgNames
	case msgHello:
		return s.handleHello(st, payload)
	case msgUpdateBatch:
		return s.handleUpdateBatch(st, payload)
	case msgDelta:
		return s.handleDelta(st, payload)
	case msgHeartbeat:
		return s.handleHeartbeat(st, payload)
	case msgWatch:
		return s.handleWatch(st, payload)
	case msgCreateView:
		var m createViewMsg
		if err := decodeGob(payload, &m); err != nil {
			return fail(err)
		}
		if _, err := s.coord.CreateView(m.Statement); err != nil {
			return fail(err)
		}
		return nil, msgOK
	case msgDropView:
		var m dropViewMsg
		if err := decodeGob(payload, &m); err != nil {
			return fail(err)
		}
		if err := s.coord.DropView(m.Name); err != nil {
			return fail(err)
		}
		return nil, msgOK
	case msgListViews:
		out, err := encodeGob(viewsMsg{Statements: s.coord.ViewStatements()})
		if err != nil {
			return fail(err)
		}
		return out, msgViews
	default:
		return fail(fmt.Errorf("distributed: unknown request type %#x", typ))
	}
}

// Client is a TCP client for a coordinator Server, usable both by
// stream sites (OpenStream) and by query front-ends (Query). A Client
// serializes its requests; use one Client per goroutine for
// parallelism.
type Client struct {
	mu       sync.Mutex
	conn     net.Conn
	watching bool        // connection dedicated to a watch result stream
	fr       frameReader // session reply buffer (guarded by mu)
}

// sessionExchange writes one pre-built session frame and decodes its
// binary ack, all under the connection lock so the reply buffer is
// never shared between concurrent exchanges. Returns the coordinator's
// accepted-update total for the session.
func (c *Client) sessionExchange(frame []byte, seq uint64) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.watching {
		return 0, errors.New("distributed: connection is dedicated to a watch result stream")
	}
	if _, err := c.conn.Write(frame); err != nil {
		return 0, err
	}
	typ, reply, err := c.fr.read(c.conn)
	if err != nil {
		return 0, err
	}
	switch typ {
	case msgAck:
		ackSeq, accepted, err := decodeAck(reply)
		if err != nil {
			return 0, err
		}
		if ackSeq != seq {
			return 0, fmt.Errorf("distributed: ack for frame %d, want %d", ackSeq, seq)
		}
		return accepted, nil
	case msgError:
		return 0, remoteError(reply)
	default:
		return 0, fmt.Errorf("distributed: unexpected reply type %#x in session", typ)
	}
}

// Dial connects to a coordinator server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one frame and reads the reply.
func (c *Client) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.watching {
		return 0, nil, errors.New("distributed: connection is dedicated to a watch result stream")
	}
	if err := writeFrame(c.conn, typ, payload); err != nil {
		return 0, nil, err
	}
	return readFrame(c.conn)
}

// remoteError decodes an msgError reply.
func remoteError(payload []byte) error {
	var m errorMsg
	if err := decodeGob(payload, &m); err != nil {
		return fmt.Errorf("distributed: undecodable error reply: %v", err)
	}
	return fmt.Errorf("distributed: coordinator: %s", m.Message)
}

// Query asks the coordinator for a set-expression cardinality estimate.
func (c *Client) Query(expression string, eps float64) (core.Estimate, error) {
	payload, err := encodeGob(queryMsg{Expr: expression, Eps: eps})
	if err != nil {
		return core.Estimate{}, err
	}
	typ, reply, err := c.roundTrip(msgQuery, payload)
	if err != nil {
		return core.Estimate{}, err
	}
	switch typ {
	case msgEstimate:
		var m estimateMsg
		if err := decodeGob(reply, &m); err != nil {
			return core.Estimate{}, err
		}
		return core.Estimate{
			Value: m.Value, Level: m.Level, Copies: m.Copies,
			Valid: m.Valid, Witnesses: m.Witnesses, Union: m.Union,
			StdError: m.StdError,
		}, nil
	case msgError:
		return core.Estimate{}, remoteError(reply)
	default:
		return core.Estimate{}, fmt.Errorf("distributed: unexpected reply type %#x to query", typ)
	}
}

// Streams lists the stream names the coordinator has synopses for.
func (c *Client) Streams() ([]string, error) {
	typ, reply, err := c.roundTrip(msgStreams, nil)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgNames:
		var m namesMsg
		if err := decodeGob(reply, &m); err != nil {
			return nil, err
		}
		return m.Names, nil
	case msgError:
		return nil, remoteError(reply)
	default:
		return nil, fmt.Errorf("distributed: unexpected reply type %#x to streams", typ)
	}
}

// okRoundTrip sends one frame whose success reply is an empty ok.
func (c *Client) okRoundTrip(typ byte, payload []byte, what string) error {
	replyTyp, reply, err := c.roundTrip(typ, payload)
	if err != nil {
		return err
	}
	switch replyTyp {
	case msgOK:
		return nil
	case msgError:
		return remoteError(reply)
	default:
		return fmt.Errorf("distributed: unexpected reply type %#x to %s", replyTyp, what)
	}
}

// CreateView registers a continuous view from a CREATE VIEW statement
// (see QUERIES.md for the statement language). The view is WAL-logged
// by the coordinator and survives restarts.
func (c *Client) CreateView(statement string) error {
	payload, err := encodeGob(createViewMsg{Statement: statement})
	if err != nil {
		return err
	}
	return c.okRoundTrip(msgCreateView, payload, "create view")
}

// DropView removes a continuous view from the coordinator's catalog.
func (c *Client) DropView(name string) error {
	payload, err := encodeGob(dropViewMsg{Name: name})
	if err != nil {
		return err
	}
	return c.okRoundTrip(msgDropView, payload, "drop view")
}

// ListViews returns the coordinator's view catalog as canonical
// CREATE VIEW statements, sorted by view name.
func (c *Client) ListViews() ([]string, error) {
	typ, reply, err := c.roundTrip(msgListViews, nil)
	if err != nil {
		return nil, err
	}
	switch typ {
	case msgViews:
		var m viewsMsg
		if err := decodeGob(reply, &m); err != nil {
			return nil, err
		}
		return m.Statements, nil
	case msgError:
		return nil, remoteError(reply)
	default:
		return nil, fmt.Errorf("distributed: unexpected reply type %#x to list views", typ)
	}
}
