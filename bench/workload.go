package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/ingest"
)

const (
	rounds = 3 // fresh server each

	viewStatement = "CREATE VIEW v AS (A | B) - C WINDOW 10s SLIDE 1s"

	// query_mix paces 80 batches (20,480 updates) and 75 queries per
	// second. At least one batch lands between any two queries, so every
	// query rebuilds its views: at twice the query rate four queries in
	// ten found them warm (0.3 ms against 1.3–7 ms) and the median sat at
	// the edge of the gap between the two kinds. The two schedules drift
	// through every relative offset in 200 ms.
	ingestPerS = 80
	queryPerS  = 75
	// mixGrace is how long after the schedule ends the last op of a
	// query_mix round may finish before the round is reported as
	// unsustainable: beyond it the open loop had a growing backlog. The
	// run still counts — latency is timed from due times, so the backlog
	// is already in op_p50_ms and op_p90_ms, and on a shared host a
	// stall of the host does this to an unchanged program.
	mixGrace = 500 * time.Millisecond
)

// sizes is the fixed work of one round. It is a function of -seconds
// alone, so every round of every run at one -seconds sends the same
// number of frames: counts, bytes and RSS repeat.
type sizes struct {
	warm   int // batches acked during set-up (warm-up or preload)
	slices int // measured slices per round
	ops    int // ops per slice
	perOp  int // batches behind one closed-loop op (site_delta_cold: one flush cycle); 0 for the open loop

	restarts int // durable rounds: kill -9 → restart cycles of the crash drill
}

// batches is how many measured batches a round sends. The open loop
// sends ingestPerS batches beside every queryPerS queries.
func (sz sizes) batches() int {
	if sz.perOp == 0 {
		return sz.slices * sz.ops * ingestPerS / queryPerS
	}
	return sz.slices * sz.ops * sz.perOp
}

// smoke shrinks sz to one tiny slice.
func (sz sizes) smoke() sizes {
	sz.slices, sz.warm, sz.ops = 1, max(1, sz.warm/8), max(2, sz.ops/10)
	return sz
}

// workload is one traffic mix. size maps a round's share of -seconds
// to fixed work, at rates the seed commit sustains on a 2-vCPU host. A
// slice is half a second to two seconds of it: long enough to hold
// every cost the server pays periodically (a WAL segment roll every 80
// batches, a garbage collection every 0.1–2 s) and 150 or more ops
// where the op rate allows, short enough that a run has many of them.
type workload struct {
	name    string
	why     string
	spec    datagen.LoadSpec
	durable bool // the server runs with a WAL; each round ends with the crash drill
	size    func(roundS float64) sizes
	driver  func() driver
}

var workloads = []*workload{
	{
		name: "forward_hot",
		why:  "closed loop of Zipf(1.0) batches, no WAL: digest-cache hits dominate, so counter replay and the wire do the work",
		spec: hotSpec,
		size: func(r float64) sizes {
			return sizes{warm: 128, slices: int(math.Ceil(r)), ops: 600, perOp: 1}
		},
		driver: func() driver { return &batchDriver{} },
	},
	{
		name: "site_delta_cold",
		why:  "an in-process site engine on uniform elements ships delta flushes: caches always miss, so hashing and ingest do the work",
		spec: coldSpec,
		size: func(r float64) sizes {
			return sizes{warm: 32, slices: max(1, int(math.Round(r/2))), ops: 20, perOp: 32}
		},
		driver: func() driver { return &siteDriver{} },
	},
	durableHot,
	{
		name: "query_mix",
		why:  "open loop of paced batches beside paced queries and one windowed view: every batch invalidates the query views",
		spec: hotSpec,
		size: func(r float64) sizes {
			return sizes{warm: 256, slices: int(math.Ceil(0.7 * r)), ops: 105}
		},
		driver: func() driver { return &mixDriver{} },
	},
}

// durableHot sends a third of forward_hot's batches: every acked
// update costs ~0.8 KiB of disk and is replayed twice.
var durableHot = &workload{
	name:    "durable_hot",
	why:     "forward_hot traffic with -fsync always, then kill -9 and restart: WAL append cost beside WAL replay cost",
	spec:    hotSpec,
	durable: true,
	size: func(r float64) sizes {
		return sizes{warm: 128, slices: int(math.Ceil(r)), ops: 200, perOp: 1, restarts: 2}
	},
	driver: func() driver { return &batchDriver{} },
}

// crashProbe is the durable_hot round a run of a workload without a
// WAL appends, once: BENCHMARK.json's contract wants every end-to-end
// metric from every workload, so wal_bytes_per_update and recovery_s
// come from it there.
var crashProbe = sizes{warm: 32, slices: 1, ops: 224, perOp: 1, restarts: 6}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// conn is the benchmark's end of one server: the ingest connection
// with its streaming session, and a second connection for queries.
type conn struct {
	ingest *distributed.Client
	sess   *distributed.StreamSession
	query  *distributed.Client
	sent   atomic.Uint64 // updates acked on sess, to audit against Heartbeat
}

func dial(srv *server) (*conn, error) {
	c := &conn{}
	var err error
	if c.ingest, err = distributed.Dial(srv.addr); err != nil {
		return nil, err
	}
	if c.sess, err = c.ingest.OpenStream("bench", benchCoins()); err != nil {
		c.ingest.Close()
		return nil, err
	}
	if c.query, err = distributed.Dial(srv.addr); err != nil {
		c.ingest.Close()
		return nil, err
	}
	return c, nil
}

func (c *conn) close() {
	c.ingest.Close()
	c.query.Close()
}

// send forwards one raw batch and waits for its ack.
func (c *conn) send(b []datagen.Update) error {
	_, err := c.sess.SendUpdates(b)
	if err == nil {
		c.sent.Add(uint64(len(b)))
	}
	return err
}

// corruptAnswer is the test hook behind the acceptance criterion "a
// deliberately corrupted answer makes the command exit non-zero": it
// perturbs one post-recovery answer of every round.
var corruptAnswer bool

// answers queries the five expressions and returns their Values.
func answers(q *distributed.Client) ([]float64, error) {
	out := make([]float64, len(expressions))
	for i, e := range expressions {
		est, err := q.Query(e, queryEps)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", e, err)
		}
		out[i] = est.Value
	}
	return out, nil
}

// slice is half a second to two seconds of a round's measured window:
// a fixed number of ops, timed on its own. The host's speed wanders by
// ±30% over seconds (README.md, noise rules), so a run's timing metrics
// are taken from its best slice, not from its average.
type slice struct {
	opMs    []float64 // latency of every op in the slice
	updates int       // updates acked inside the slice
	wallS   float64
	cpuS    float64 // server child + benchmark process
}

// round is what one round of one workload measured.
type round struct {
	slices    []slice
	ackMs     []float64 // query_mix: ingest ack latency from due time
	lateMs    []float64 // query_mix: how late the generator started each query
	attempted int
	failed    int
	rssMB     float64   // server VmHWM at the end of the window
	setupS    float64   // input generation + spawn → listening → sessions open → warm-up acked
	walBytes  float64   // durable rounds: bytes under the WAL directory per acked update
	recoveryS []float64 // durable rounds, each: respawn after kill -9 → first answered Query
	answers   []float64
	scrape    map[string]float64 // traced rounds: /metrics delta over the window
	problems  []string           // correctness violations
	warnings  []string           // reported, but the run still counts
}

func (r *round) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opMs returns every op latency of the round.
func (r *round) opMs() []float64 {
	var all []float64
	for i := range r.slices {
		all = append(all, r.slices[i].opMs...)
	}
	return all
}

// updatesPerS is the round's throughput over its whole window.
func (r *round) updatesPerS() float64 {
	var n int
	var wall float64
	for i := range r.slices {
		n += r.slices[i].updates
		wall += r.slices[i].wallS
	}
	return ratio(float64(n), wall)
}

// meter cuts a round's window into slices.
type meter struct {
	srv   *server
	r     *round
	win   window
	acked uint64 // conn.sent when the current slice opened
	err   error  // first /proc read failure
}

func newMeter(srv *server, c *conn, r *round) *meter {
	m := &meter{srv: srv, r: r, acked: c.sent.Load()}
	m.win, m.err = srv.openWindow()
	return m
}

// cut closes the current slice — its ops took opMs — and opens the
// next one.
func (m *meter) cut(c *conn, opMs []float64) {
	wall, cpu, err := m.win.close(m.srv)
	acked := c.sent.Load()
	m.r.slices = append(m.r.slices, slice{opMs: opMs, updates: int(acked - m.acked), wallS: wall, cpuS: cpu})
	m.acked = acked
	if m.win, _ = m.srv.openWindow(); m.err == nil {
		m.err = err
	}
}

// driver is the per-round state of one workload's traffic.
type driver interface {
	// prepare finishes set-up on a fresh server: warm-up or preload.
	prepare(c *conn, in *input, sz sizes) error
	// measure sends the round's fixed work, cutting a slice every
	// sz.ops ops.
	measure(c *conn, in *input, sz sizes, tr *tracer, parent int, m *meter)
}

// batchDriver is the closed loop of forward_hot and durable_hot: one
// session, op = SendUpdates → ack.
type batchDriver struct{}

func (batchDriver) prepare(c *conn, in *input, sz sizes) error {
	for _, b := range in.warm {
		if err := c.send(b); err != nil {
			return err
		}
	}
	return nil
}

func (batchDriver) measure(c *conn, in *input, sz sizes, tr *tracer, parent int, m *meter) {
	for s := 0; s < sz.slices; s++ {
		opMs := make([]float64, 0, sz.ops)
		for _, b := range in.batches[s*sz.ops : (s+1)*sz.ops] {
			id := tr.begin("distributed.SendUpdates", parent)
			start := time.Now()
			err := c.send(b)
			opMs = append(opMs, ms(time.Since(start)))
			tr.end(id)
			m.r.attempted++
			if err != nil {
				m.r.failed++
			}
		}
		m.cut(c, opMs)
	}
}

// siteDriver plays a `sketchd stream -mode sketch` site: an in-process
// ingest engine sketches the updates and ships a delta flush every
// perOp batches; op = one flush, Engine.Flush call → ack.
type siteDriver struct {
	eng *ingest.Engine
}

func (d *siteDriver) engine() (err error) {
	coins := benchCoins()
	d.eng, err = ingest.New(coins.Config, coins.Seed, coins.Copies, ingest.Options{Workers: 1, BatchSize: batchSize})
	return err
}

// cycle sketches bs locally, then flushes and ships the deltas; it
// returns the flush → ack latency. The engine applies batches behind
// UpdateBatch's back, so the clock starts once it has drained: how much
// of the sketching is still queued when Flush is called is the
// scheduler's choice (4–17 ms of a 25 ms op), and belongs to the
// sketching, which updates_per_s times.
func (d *siteDriver) cycle(c *conn, bs [][]datagen.Update, tr *tracer, parent int) (time.Duration, error) {
	id := tr.begin("ingest.UpdateBatch", parent)
	for _, b := range bs {
		if err := d.eng.UpdateBatch(b); err != nil {
			return 0, err
		}
	}
	d.eng.Drain()
	tr.end(id)
	n := uint64(updates(bs))
	start := time.Now()
	id = tr.begin("ingest.Flush", parent)
	deltas := d.eng.Flush()
	tr.end(id)
	id = tr.begin("distributed.SendFlush", parent)
	err := c.sess.SendFlush(deltas, n)
	tr.end(id)
	if err == nil {
		c.sent.Add(n)
	}
	return time.Since(start), err
}

func (d *siteDriver) prepare(c *conn, in *input, sz sizes) error {
	if err := d.engine(); err != nil {
		return err
	}
	_, err := d.cycle(c, in.warm, nil, -1)
	return err
}

func (d *siteDriver) measure(c *conn, in *input, sz sizes, tr *tracer, parent int, m *meter) {
	defer d.eng.Close()
	for s := 0; s < sz.slices; s++ {
		opMs := make([]float64, 0, sz.ops)
		for i := s * sz.ops; i < (s+1)*sz.ops; i++ {
			id := tr.begin("flush_cycle", parent)
			lat, err := d.cycle(c, in.batches[i*sz.perOp:(i+1)*sz.perOp], tr, id)
			tr.end(id)
			opMs = append(opMs, ms(lat))
			m.r.attempted++
			if err != nil {
				m.r.failed++
			}
		}
		m.cut(c, opMs)
	}
}

// schedule is an open loop's arrival times: op i is due at
// start + i·interval whether or not earlier ops have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// observe accounts one open-loop op: latency runs from the due time,
// so the wait a stall imposes on later ops is counted, and lateness is
// how long after its due time the generator started the op.
func observe(due, started, ended time.Time) (latencyMs, lateMs float64) {
	return ms(ended.Sub(due)), ms(started.Sub(due))
}

// pace runs ops [from, to) of s, sleeping until each is due, and
// returns the latencies, the latenesses, the failures and when the
// last op ended.
func pace(s schedule, from, to int, op func(i int) error) (latMs, lateMs []float64, failed int, last time.Time) {
	latMs = make([]float64, 0, to-from)
	lateMs = make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		due := s.due(i)
		time.Sleep(time.Until(due))
		started := time.Now()
		if err := op(i); err != nil {
			failed++
		}
		last = time.Now()
		lat, late := observe(due, started, last)
		latMs = append(latMs, lat)
		lateMs = append(lateMs, late)
	}
	return latMs, lateMs, failed, last
}

// mixDriver is query_mix: a preloaded server with one windowed view,
// then paced ingest on one connection beside paced queries on another.
// op = Client.Query, timed from its due time; a slice is sz.ops
// consecutive queries of the schedule.
type mixDriver struct{}

func (mixDriver) prepare(c *conn, in *input, sz sizes) error {
	if err := c.query.CreateView(viewStatement); err != nil {
		return err
	}
	return batchDriver{}.prepare(c, in, sz)
}

func (mixDriver) measure(c *conn, in *input, sz sizes, tr *tracer, parent int, m *meter) {
	start := time.Now()
	var (
		wg           sync.WaitGroup
		ingestFailed int
		ingestLast   time.Time
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := schedule{start, time.Second / ingestPerS}
		m.r.ackMs, _, ingestFailed, ingestLast = pace(s, 0, len(in.batches), func(i int) error {
			id := tr.begin("distributed.SendUpdates", parent)
			defer tr.end(id)
			return c.send(in.batches[i])
		})
	}()
	s := schedule{start, time.Second / queryPerS}
	var lastDone time.Time
	for k := 0; k < sz.slices; k++ {
		opMs, lateMs, failed, last := pace(s, k*sz.ops, (k+1)*sz.ops, func(i int) error {
			id := tr.begin("distributed.Query", parent)
			defer tr.end(id)
			_, err := c.query.Query(expressions[i%len(expressions)], queryEps)
			return err
		})
		m.cut(c, opMs)
		m.r.lateMs = append(m.r.lateMs, lateMs...)
		m.r.failed += failed
		lastDone = last
	}
	wg.Wait()
	if ingestLast.After(lastDone) {
		lastDone = ingestLast
	}
	m.r.attempted = sz.slices*sz.ops + len(in.batches)
	m.r.failed += ingestFailed
	if over := lastDone.Sub(s.due(sz.slices * sz.ops)); over > mixGrace {
		m.r.warnings = append(m.r.warnings, fmt.Sprintf("unsustainable: last op finished %.0f ms after the schedule ended", ms(over)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runRound runs one round of w on a fresh server: set-up, the measured
// window, the credit audit and the five answers. A durable round ends
// with the crash drill: the WAL directory is measured, then the server
// is SIGKILLed and restarted on it sz.restarts times, each restart
// timed from spawn to the first answered Query and checked to give the
// five answers bit for bit.
func runRound(h *harness, w *workload, in *input, sz sizes, tr *tracer) (*round, error) {
	r := &round{}
	var (
		srv *server
		c   *conn
	)
	defer func() {
		if c != nil {
			c.close()
		}
		if srv != nil {
			srv.kill()
		}
	}()
	// start replaces the round's server (and connections) with a fresh
	// one on dir, SIGKILLing the old one first.
	start := func(dir string) (err error) {
		if c != nil {
			c.close()
		}
		if srv != nil {
			srv.kill()
		}
		c = nil
		if srv, err = h.spawn(dir); err != nil {
			return err
		}
		c, err = dial(srv)
		return err
	}

	dir := ""
	if w.durable {
		var err error
		if dir, err = h.walDir(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	if err := start(dir); err != nil {
		return nil, err
	}
	d := w.driver()
	if err := d.prepare(c, in, sz); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setupS = time.Since(srv.spawned).Seconds()

	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = srv.scrape(); err != nil {
			return nil, err
		}
	}
	parent := tr.begin("round."+w.name, -1)
	m := newMeter(srv, c, r)
	d.measure(c, in, sz, tr, parent, m)
	tr.end(parent)
	if m.err != nil {
		return nil, m.err
	}
	var err error
	if r.rssMB, err = srv.rssMB(); err != nil {
		return nil, err
	}
	if tr != nil {
		after, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		r.scrape = map[string]float64{}
		for k, v := range after {
			r.scrape[k] = v - before[k]
		}
	}

	credited, err := c.sess.Heartbeat()
	if err != nil {
		return nil, fmt.Errorf("final heartbeat: %w", err)
	}
	if want := uint64(updates(in.all)); credited != want || c.sent.Load() != want {
		r.failed++
		r.problem("coordinator credited %d updates, session got acks for %d, input holds %d", credited, c.sent.Load(), want)
	}
	if r.answers, err = answers(c.query); err != nil {
		return nil, err
	}
	if !w.durable {
		return r, nil
	}

	bytes, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.walBytes = float64(bytes) / float64(c.sent.Load())
	for i := 0; i < sz.restarts; i++ {
		id := tr.begin("recovery", -1)
		if err := start(dir); err != nil {
			return nil, fmt.Errorf("restart after kill -9: %w", err)
		}
		if _, err := c.query.Query(expressions[0], queryEps); err != nil {
			return nil, fmt.Errorf("first query after recovery: %w", err)
		}
		r.recoveryS = append(r.recoveryS, time.Since(srv.spawned).Seconds())
		tr.end(id)
		postKill, err := answers(c.query)
		if err != nil {
			return nil, err
		}
		if corruptAnswer {
			postKill[0]++
		}
		if j := firstDiff(r.answers, postKill); j >= 0 {
			r.problem("recovery %d: |%s| = %v after restart, %v before kill -9", i+1, expressions[j], postKill[j], r.answers[j])
		}
	}
	return r, nil
}

// firstDiff returns the first index at which a and b are not
// bit-identical, or -1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkAnswers compares one round's answers with the exact sizes.
func checkAnswers(in *input, got []float64) error {
	var errs []error
	for i, e := range expressions {
		ex := in.exact[e]
		if diff := math.Abs(got[i] - float64(ex.size)); diff > errTolerance*float64(ex.union) {
			errs = append(errs, fmt.Errorf("|%s| ≈ %.0f but exactly %d: off by %.0f, more than %.2f × union %d",
				e, got[i], ex.size, diff, errTolerance, ex.union))
		}
	}
	return errors.Join(errs...)
}
