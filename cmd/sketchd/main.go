// Command sketchd runs the distributed pieces of the paper's Figure 1
// architecture over TCP: a coordinator daemon that merges synopses and
// answers set-expression queries, a site mode that ships local update
// streams through a session, and query modes (point-in-time or
// standing).
//
//	sketchd serve  -listen :7070 [-admin :7071] [-log-level info] \
//	               [-idle-timeout 0] [-copies 512] [-s 32] [-seed 1] \
//	               [-wal-dir /var/lib/sketchd/wal] [-fsync always] \
//	               [-segment-size 16777216] [-snapshot-interval 1m] \
//	               [-cq-max-groups 4096] [-cq-group-sep :] \
//	               [-cq-rotate-interval 1s] [-shards 0] [-digest-cache 0] \
//	               [-mutex-profile-fraction 0] [-block-profile-rate 0]
//	sketchd stream -addr host:7070 -site edge1 -in updates.txt \
//	               [-mode sketch|forward] [-workers N] [-flush-updates 10000] \
//	               [-wal-dir dir] [-fsync always] [-segment-size N] \
//	               [-admin :0] [-log-level info] [...coins]
//	sketchd query  -addr host:7070 -expr '(A & B) - C' [-eps 0.1]
//	sketchd watch  -addr host:7070 [-expr 'A & B'] [-view name] \
//	               [-eps 0.1] [-every 10000] [-interval 2s]
//	sketchd views  -addr host:7070 [-create 'CREATE VIEW ...'] [-drop name]
//	sketchd streams -addr host:7070
//	sketchd inspect wal -dir /var/lib/sketchd/wal
//
// stream keeps a session open and ships continuously: in sketch mode
// it runs the sharded ingest engine locally and flushes synopsis
// deltas (merged by linearity at the coordinator); in forward mode it
// relays raw update batches for the coordinator to sketch. watch
// registers standing continuous queries — ad-hoc expressions and/or
// continuous views — and prints each re-evaluation as the coordinator
// streams it back. views manages the coordinator's continuous-view catalog
// (CREATE VIEW statements with windows, groups, and emit modes — see
// QUERIES.md for the language).
//
// All parties must share the stored-coins parameters (-copies, -s,
// -wise, -seed); mismatches are rejected by the coordinator.
//
// With -admin, serve (and stream) additionally expose an operations
// endpoint — /metrics (Prometheus text or JSON), /healthz, and
// /debug/pprof/* — documented in OPERATIONS.md.
//
// With -wal-dir, serve write-ahead-logs every accepted mutation before
// applying it, snapshots merged state periodically, and on restart
// recovers bit-identical state (last snapshot + WAL suffix replay; see
// DESIGN.md "Durability"). The same flag on stream journals raw
// batches site-locally so a crashed site resends work the coordinator
// never acked. inspect wal dumps a WAL directory read-only: segments,
// record counts, snapshots, and the exact truncation point if a
// segment is corrupt.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/ingest"
	"setsketch/internal/obs"
	"setsketch/internal/streamio"
	"setsketch/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = runServe(os.Args[2:])
	case "stream":
		err = runStream(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "watch":
		err = runWatch(os.Args[2:])
	case "views":
		err = runViews(os.Args[2:])
	case "streams":
		err = runStreams(os.Args[2:])
	case "inspect":
		err = runInspect(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sketchd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sketchd {serve|stream|query|watch|views|streams|inspect} [flags]")
	os.Exit(2)
}

// coinFlags registers the shared stored-coins flags on a flag set.
func coinFlags(fs *flag.FlagSet) func() distributed.Coins {
	copies := fs.Int("copies", 512, "sketch copies r per stream")
	s := fs.Int("s", 32, "second-level hash functions (at most 58)")
	wise := fs.Int("wise", 8, "first-level independence degree")
	seed := fs.Uint64("seed", 1, "stored-coins master seed")
	return func() distributed.Coins {
		cfg := core.DefaultConfig()
		cfg.SecondLevel = *s
		cfg.FirstWise = *wise
		return distributed.Coins{Config: cfg, Seed: *seed, Copies: *copies}
	}
}

// logFlags registers the shared -log-level flag and returns a
// constructor for the process logger (writing logfmt to stderr).
func logFlags(fs *flag.FlagSet) func() (*obs.Logger, error) {
	level := fs.String("log-level", "info", "log level: debug, info, warn, or error")
	return func() (*obs.Logger, error) {
		lv, err := obs.ParseLevel(*level)
		if err != nil {
			return nil, err
		}
		return obs.NewLogger(os.Stderr, lv), nil
	}
}

// daemon is a running coordinator server plus its optional admin
// endpoint and durability layer, factored out of runServe so tests can
// start one in-process and read its metrics over HTTP.
type daemon struct {
	Coord *distributed.Coordinator
	Reg   *obs.Registry

	srv    *distributed.Server
	l      net.Listener
	admin  *http.Server
	adminL net.Listener
	done   chan error

	wlog *wal.Log
	snap *distributed.Periodic
	rot  *distributed.Periodic
	log  *obs.Logger
}

// daemonConfig configures startDaemon. The zero value (plus Listen and
// Coins) serves without admin endpoint, durability, or logging.
type daemonConfig struct {
	Listen      string
	AdminAddr   string // "" disables the admin endpoint
	Coins       distributed.Coins
	IdleTimeout time.Duration
	Log         *obs.Logger

	// WALDir enables durability: recovery on start (snapshot + WAL
	// suffix replay), write-ahead logging of every accepted mutation,
	// and periodic snapshots every SnapshotInterval (0 disables the
	// loop; a final snapshot is still written at clean shutdown).
	WALDir           string
	Fsync            string // "always", "never", or an interval duration
	SegmentSize      int64  // 0 = WAL default (16 MiB)
	SnapshotInterval time.Duration

	// Continuous-view engine knobs (see QUERIES.md). CQMaxGroups bounds
	// live groups per grouped view (0 = engine default 4096, negative =
	// unbounded); CQGroupSep is the group/stream separator in physical
	// stream names ("" = ":"); CQRotateInterval sweeps windowed views so
	// idle views still age (0 disables the sweep — updates and watch
	// rounds still rotate lazily).
	CQMaxGroups      int
	CQGroupSep       string
	CQRotateInterval time.Duration

	// Shards partitions coordinator state into this many lock stripes
	// (rounded up to a power of two; 0 = GOMAXPROCS-derived default;
	// 1 = the unsharded layout, bit-identical to the pre-sharding
	// coordinator). DigestCache arms the coordinator-side element-digest
	// cache on the raw-update path (0 = default 8192 entries, negative =
	// disabled).
	Shards      int
	DigestCache int

	// MutexProfileFraction and BlockProfileRate feed the corresponding
	// runtime profilers so /debug/pprof/mutex and /debug/pprof/block can
	// attribute lock contention (see OPERATIONS.md, "Walkthrough:
	// coordinator lock contention"). 0 leaves each profiler off.
	MutexProfileFraction int
	BlockProfileRate     int
}

// startDaemon listens, wires observability into the coordinator and
// server, recovers durable state when a WAL directory is configured,
// and begins serving.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	if cfg.MutexProfileFraction > 0 {
		runtime.SetMutexProfileFraction(cfg.MutexProfileFraction)
	}
	if cfg.BlockProfileRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockProfileRate)
	}
	coord, err := distributed.NewCoordinator(cfg.Coins)
	if err != nil {
		return nil, err
	}
	// Repartition before anything can create state: resharding does not
	// migrate streams, so SetShards refuses once the coordinator holds
	// any.
	if cfg.Shards != 0 {
		if err := coord.SetShards(cfg.Shards); err != nil {
			return nil, err
		}
	}
	// Reconfigure the continuous-view engine before recovery so replayed
	// CREATE VIEW statements land in an engine with the right group
	// bound and separator.
	if cfg.CQMaxGroups != 0 || cfg.CQGroupSep != "" {
		if err := coord.SetCQOptions(cq.Options{MaxGroups: cfg.CQMaxGroups, GroupSep: cfg.CQGroupSep}); err != nil {
			return nil, err
		}
	}
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	coord.SetObservability(reg, cfg.Log)
	// After SetObservability: the cache binds the coord_digest_cache_*
	// counters at creation.
	coord.SetDigestCache(cfg.DigestCache)
	d := &daemon{Coord: coord, Reg: reg, l: l, done: make(chan error, 1), log: cfg.Log}
	if cfg.WALDir != "" {
		policy, ival, err := wal.ParseSyncPolicy(cfg.Fsync)
		if err != nil {
			l.Close()
			return nil, err
		}
		wlog, err := wal.Open(cfg.WALDir, wal.Options{
			Config:       cfg.Coins.Config,
			Seed:         cfg.Coins.Seed,
			Copies:       cfg.Coins.Copies,
			SegmentSize:  cfg.SegmentSize,
			Sync:         policy,
			SyncInterval: ival,
			Obs:          reg,
			Log:          cfg.Log,
		})
		if err != nil {
			l.Close()
			return nil, err
		}
		rs, err := coord.Recover(wlog)
		if err != nil {
			wlog.Close()
			l.Close()
			return nil, fmt.Errorf("wal recovery: %w", err)
		}
		coord.AttachWAL(wlog)
		d.wlog = wlog
		d.snap = distributed.StartSnapshotter(coord, cfg.SnapshotInterval, cfg.Log)
		cfg.Log.Info("durability enabled", "wal_dir", cfg.WALDir, "fsync", policy.String(),
			"snapshot_seq", rs.SnapshotSeq, "replayed_records", rs.Replayed.Records,
			"replayed_updates", rs.Replayed.Updates, "last_seq", wlog.LastSeq())
	}
	d.rot = distributed.StartViewRotator(coord, cfg.CQRotateInterval)
	srv := distributed.NewServer(coord)
	srv.IdleTimeout = cfg.IdleTimeout
	srv.SetObservability(reg, cfg.Log)
	d.srv = srv
	if cfg.AdminAddr != "" {
		al, err := net.Listen("tcp", cfg.AdminAddr)
		if err != nil {
			if d.wlog != nil {
				d.wlog.Close()
			}
			l.Close()
			return nil, fmt.Errorf("admin endpoint: %w", err)
		}
		d.adminL = al
		d.admin = &http.Server{Handler: obs.AdminMux(reg, func() error { return nil })}
		go d.admin.Serve(al)
	}
	go func() { d.done <- srv.Serve(l) }()
	return d, nil
}

// Addr returns the coordinator's listen address.
func (d *daemon) Addr() string { return d.l.Addr().String() }

// AdminAddr returns the admin endpoint's address, or "" if disabled.
func (d *daemon) AdminAddr() string {
	if d.adminL == nil {
		return ""
	}
	return d.adminL.Addr().String()
}

// Close stops both listeners and tears down connections; watch
// clients receive a terminal shutdown reason first (see Server.Close).
// With durability enabled the server drain completes before the final
// snapshot is written and the WAL is synced and closed, so a clean
// shutdown loses nothing and the next start replays (almost) no
// records.
func (d *daemon) Close() {
	if d.admin != nil {
		d.admin.Close()
	}
	d.srv.Close() // drains in-flight dispatches; all mutations logged
	d.rot.Stop()  // nil-safe
	if d.wlog != nil {
		d.snap.Stop() // nil-safe
		if err := d.Coord.WriteSnapshot(); err != nil {
			d.log.Warn("final snapshot failed", "err", err.Error())
		}
		if err := d.wlog.Close(); err != nil {
			d.log.Warn("wal close failed", "err", err.Error())
		}
	}
}

// Wait blocks until Serve returns.
func (d *daemon) Wait() error { return <-d.done }

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":7070", "address to listen on")
	admin := fs.String("admin", "", "admin endpoint address for /metrics, /healthz, /debug/pprof (disabled if empty)")
	idle := fs.Duration("idle-timeout", 0, "tear down sessions idle longer than this (0 disables)")
	estWorkers := fs.Int("estimate-workers", 0, "accepted for compatibility: estimates always scan serially, so only values <= 1 are valid")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory; enables durability and crash recovery (disabled if empty)")
	fsync := fs.String("fsync", "always", "WAL fsync policy: always, never, or an interval like 100ms")
	segSize := fs.Int64("segment-size", 16<<20, "rotate WAL segments at this many bytes")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "write a state snapshot this often so recovery replays only a short WAL suffix (0 disables periodic snapshots)")
	cqMaxGroups := fs.Int("cq-max-groups", 0, "live groups per windowed grouped continuous view before LRU eviction (0 = default 4096, negative = unbounded)")
	cqGroupSep := fs.String("cq-group-sep", "", "separator splitting physical stream names into group:logical for GROUP BY views (default \":\")")
	cqRotate := fs.Duration("cq-rotate-interval", time.Second, "sweep windowed continuous views this often so idle views still age out buckets (0 disables the sweep)")
	shards := fs.Int("shards", 0, "lock-striped coordinator state shards, rounded up to a power of two (0 = GOMAXPROCS-derived default, 1 = unsharded layout)")
	digestCache := fs.Int("digest-cache", 0, "coordinator element-digest cache entries for the raw-update path, rounded up to a power of two (0 = default 8192, negative = no cache)")
	mutexFrac := fs.Int("mutex-profile-fraction", 0, "sample 1/n mutex contention events into /debug/pprof/mutex (0 disables)")
	blockRate := fs.Int("block-profile-rate", 0, "sample blocking events of >= n ns into /debug/pprof/block (0 disables)")
	mkLog := logFlags(fs)
	coins := coinFlags(fs)
	fs.Parse(args)

	if *estWorkers > 1 {
		return fmt.Errorf("serve: -estimate-workers %d: estimates scan serially; only values <= 1 are accepted", *estWorkers)
	}
	log, err := mkLog()
	if err != nil {
		return err
	}
	d, err := startDaemon(daemonConfig{
		Listen:               *listen,
		AdminAddr:            *admin,
		Coins:                coins(),
		IdleTimeout:          *idle,
		Log:                  log,
		WALDir:               *walDir,
		Fsync:                *fsync,
		SegmentSize:          *segSize,
		SnapshotInterval:     *snapInterval,
		CQMaxGroups:          *cqMaxGroups,
		CQGroupSep:           *cqGroupSep,
		CQRotateInterval:     *cqRotate,
		Shards:               *shards,
		DigestCache:          *digestCache,
		MutexProfileFraction: *mutexFrac,
		BlockProfileRate:     *blockRate,
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Info("shutting down")
		d.Close()
	}()
	log.Info("coordinator listening", "addr", d.Addr())
	if a := d.AdminAddr(); a != "" {
		log.Info("admin endpoint listening", "addr", a,
			"endpoints", "/metrics /healthz /debug/pprof/")
	}
	return d.Wait()
}

// scanUpdateFile streams the updates of a file (stdin for "-") through
// fn one at a time and returns how many were processed.
func scanUpdateFile(path string, fn func(datagen.Update) error) (int, error) {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		r = f
	}
	sc := streamio.NewScanner(r)
	n := 0
	for sc.Scan() {
		if err := fn(sc.Update()); err != nil {
			return n, err
		}
		n++
	}
	return n, sc.Err()
}

func runStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	siteName := fs.String("site", "site", "site name")
	in := fs.String("in", "-", "update-stream file (- for stdin)")
	mode := fs.String("mode", "sketch", "sketch: local sharded ingest + delta flushes; forward: relay raw update batches")
	workers := fs.Int("workers", 0, "ingest shard workers (0 = GOMAXPROCS)")
	batch := fs.Int("batch", 256, "updates per batch hand-off")
	digestCache := fs.Int("digest-cache", 0, "element-digest cache entries, rounded up to a power of two (0 = default 8192, negative = no cache)")
	flushUpdates := fs.Int("flush-updates", 10000, "flush a synopsis delta every N updates (sketch mode)")
	flushInterval := fs.Duration("flush-interval", 2*time.Second, "also flush after this long without one (sketch mode)")
	walDir := fs.String("wal-dir", "", "site journal directory; batches are journaled before processing and replayed after a crash (disabled if empty)")
	fsync := fs.String("fsync", "always", "journal fsync policy: always, never, or an interval like 100ms")
	segSize := fs.Int64("segment-size", 16<<20, "rotate journal segments at this many bytes")
	admin := fs.String("admin", "", "admin endpoint address for the site's own /metrics, /healthz, /debug/pprof (disabled if empty)")
	mkLog := logFlags(fs)
	coins := coinFlags(fs)
	fs.Parse(args)

	log, err := mkLog()
	if err != nil {
		return err
	}
	// The site's own registry: ingest_* metrics live here, not at the
	// coordinator (which exports its stream_*/coord_* view of the same
	// session).
	reg := obs.NewRegistry()
	if *admin != "" {
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		adminSrv := &http.Server{Handler: obs.AdminMux(reg, func() error { return nil })}
		go adminSrv.Serve(al)
		defer adminSrv.Close()
		log.Info("admin endpoint listening", "addr", al.Addr().String())
	}

	cli, err := distributed.Dial(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	sess, err := cli.OpenStream(*siteName, coins())
	if err != nil {
		return err
	}
	log.Info("session open", "site", *siteName, "addr", *addr, "mode", *mode)

	// Site-local journal: crashed runs leave an unmarked tail that the
	// next run ships before reading new input (at-least-once).
	var journal *siteJournal
	var pending []datagen.Update
	if *walDir != "" {
		journal, pending, err = openSiteJournal(*walDir, *siteName, coins(), *fsync, *segSize, reg, log)
		if err != nil {
			return err
		}
		defer journal.Close()
		if len(pending) > 0 {
			log.Info("replaying journaled tail from a previous run", "updates", len(pending))
		}
	}

	switch *mode {
	case "forward":
		return streamForward(sess, *in, *batch, journal, pending)
	case "sketch":
		return streamSketch(sess, *in, coins(),
			ingest.Options{Workers: *workers, BatchSize: *batch, DigestCache: *digestCache, Obs: reg, Log: log},
			*flushUpdates, *flushInterval, *batch, journal, pending)
	default:
		return fmt.Errorf("stream: unknown -mode %q", *mode)
	}
}

// streamForward relays raw update batches over the session; the
// coordinator sketches them centrally. With a journal, each batch is
// journaled before it is sent and marked once the coordinator acks it.
func streamForward(sess *distributed.StreamSession, in string, batch int,
	journal *siteJournal, pending []datagen.Update) error {
	buf := make([]datagen.Update, 0, batch)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := journal.LogBatch(buf); err != nil {
			return err
		}
		if _, err := sess.SendUpdates(buf); err != nil {
			return err
		}
		if err := journal.MarkAcked(); err != nil {
			return err
		}
		buf = buf[:0]
		return nil
	}
	// A previous run's unacked tail goes first (already journaled).
	if len(pending) > 0 {
		if _, err := sess.SendUpdates(pending); err != nil {
			return err
		}
		if err := journal.MarkAcked(); err != nil {
			return err
		}
	}
	n, err := scanUpdateFile(in, func(u datagen.Update) error {
		buf = append(buf, u)
		if len(buf) >= batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	accepted, err := sess.Heartbeat()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sketchd: forwarded %d updates from site %q (%d accepted by coordinator)\n",
		n, sess.Site(), accepted)
	return nil
}

// streamSketch runs the sharded ingest engine locally and periodically
// flushes synopsis deltas, which the coordinator merges by linearity.
// With a journal, raw batches are journaled before they enter the
// engine and marked acked once the flush covering them lands, so a
// crash never loses updates the coordinator has not seen.
func streamSketch(sess *distributed.StreamSession, in string, coins distributed.Coins,
	opts ingest.Options, flushUpdates int, flushInterval time.Duration,
	batch int, journal *siteJournal, pending []datagen.Update) error {
	eng, err := ingest.New(coins.Config, coins.Seed, coins.Copies, opts)
	if err != nil {
		return err
	}
	defer eng.Close()

	var sinceFlush uint64
	lastFlush := time.Now()
	deltas := 0
	flush := func() error {
		if sinceFlush == 0 {
			return nil
		}
		if err := sess.SendFlush(eng.Flush(), sinceFlush); err != nil {
			return err
		}
		deltas++
		sinceFlush = 0
		lastFlush = time.Now()
		return journal.MarkAcked() // nil-safe no-op without a journal
	}
	apply := func(ups []datagen.Update) error {
		for _, u := range ups {
			if err := eng.Update(u.Stream, u.Elem, u.Delta); err != nil {
				return err
			}
		}
		sinceFlush += uint64(len(ups))
		if int(sinceFlush) >= flushUpdates ||
			(flushInterval > 0 && time.Since(lastFlush) >= flushInterval) {
			return flush()
		}
		return nil
	}
	// A previous run's unacked tail is already journaled: sketch and
	// flush it before reading new input.
	if len(pending) > 0 {
		if err := apply(pending); err != nil {
			return err
		}
		if err := flush(); err != nil {
			return err
		}
	}
	buf := make([]datagen.Update, 0, batch)
	drain := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := journal.LogBatch(buf); err != nil {
			return err
		}
		err := apply(buf)
		buf = buf[:0]
		return err
	}
	n, err := scanUpdateFile(in, func(u datagen.Update) error {
		buf = append(buf, u)
		if len(buf) >= batch {
			return drain()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := drain(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	accepted, err := sess.Heartbeat()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"sketchd: streamed %d updates from site %q via %d workers, %d delta flushes (%d accepted by coordinator)\n",
		n, sess.Site(), eng.Workers(), deltas, accepted)
	return nil
}

func runWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	var exprs, views []string
	fs.Func("expr", "set expression to watch (repeatable)", func(s string) error {
		exprs = append(exprs, s)
		return nil
	})
	fs.Func("view", "continuous view to watch, registered earlier via `sketchd views -create` (repeatable)", func(s string) error {
		views = append(views, s)
		return nil
	})
	eps := fs.Float64("eps", 0.1, "relative accuracy parameter ε")
	every := fs.Uint64("every", 10000, "re-evaluate after this many accepted updates (0 disables)")
	interval := fs.Duration("interval", 0, "also re-evaluate on this wall-clock period (0 disables)")
	fs.Parse(args)
	if len(exprs) == 0 && len(views) == 0 {
		return fmt.Errorf("watch: at least one -expr or -view is required")
	}
	cli, err := distributed.Dial(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	events, err := cli.Subscribe(distributed.WatchRequest{
		Exprs:        exprs,
		Views:        views,
		Eps:          *eps,
		EveryUpdates: *every,
		Interval:     *interval,
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "sketchd: watching %d expression(s), %d view(s); ^C to stop\n",
		len(exprs), len(views))
	for {
		select {
		case <-sig:
			return nil
		case ev, ok := <-events:
			if !ok {
				return fmt.Errorf("watch: result stream closed by coordinator")
			}
			if ev.Terminal {
				// The server ended the watch (slow consumer, shutdown)
				// or the connection failed: surface the reason instead
				// of exiting silently.
				select {
				case <-sig: // local ^C raced the read error; clean exit
					return nil
				default:
				}
				return fmt.Errorf("watch: %s", ev.Err)
			}
			label := ev.Expr
			if ev.View != "" {
				label = "view " + ev.View
				if ev.Group != "" {
					label += "[" + ev.Group + "]"
				}
			}
			if ev.Err != "" {
				fmt.Printf("[%d @ %d updates] %s: %s\n", ev.Epoch, ev.Updates, label, ev.Err)
				continue
			}
			delta := ""
			if ev.Delta != 0 {
				delta = fmt.Sprintf("  Δ%+.0f", ev.Delta)
			}
			fmt.Printf("[%d @ %d updates] |%s| ≈ %.0f ± %.0f%s  (level %d, %d/%d valid, %d witnesses)\n",
				ev.Epoch, ev.Updates, label, ev.Est.Value, ev.Est.StdError, delta,
				ev.Est.Level, ev.Est.Valid, ev.Est.Copies, ev.Est.Witnesses)
		}
	}
}

// runViews manages the coordinator's continuous-view catalog: with no
// action flags it lists the catalog as canonical CREATE VIEW
// statements; -create registers a view and -drop removes one (both may
// be given, creates run first).
func runViews(args []string) error {
	fs := flag.NewFlagSet("views", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	var creates, drops []string
	fs.Func("create", "CREATE VIEW statement to register (repeatable; see QUERIES.md)", func(s string) error {
		creates = append(creates, s)
		return nil
	})
	fs.Func("drop", "view name to drop (repeatable)", func(s string) error {
		drops = append(drops, s)
		return nil
	})
	fs.Parse(args)
	cli, err := distributed.Dial(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	for _, stmt := range creates {
		if err := cli.CreateView(stmt); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sketchd: created view\n")
	}
	for _, name := range drops {
		if err := cli.DropView(name); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sketchd: dropped view %q\n", name)
	}
	if len(creates) == 0 && len(drops) == 0 {
		stmts, err := cli.ListViews()
		if err != nil {
			return err
		}
		for _, s := range stmts {
			fmt.Println(s)
		}
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	exprStr := fs.String("expr", "", "set expression (required)")
	eps := fs.Float64("eps", 0.1, "relative accuracy parameter ε")
	fs.Parse(args)
	if *exprStr == "" {
		return fmt.Errorf("query: -expr is required")
	}
	cli, err := distributed.Dial(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	est, err := cli.Query(*exprStr, *eps)
	if err != nil {
		return err
	}
	fmt.Printf("|%s| ≈ %.0f ± %.0f  (û = %.0f, level %d, %d/%d valid copies, %d witnesses)\n",
		*exprStr, est.Value, est.StdError, est.Union, est.Level, est.Valid, est.Copies, est.Witnesses)
	return nil
}

// runInspect dumps durability state read-only; the one target so far
// is `sketchd inspect wal -dir <dir>`, which reports every segment
// (record counts by type, sequence range) and snapshot, plus the exact
// byte offset recovery would truncate to when a segment is corrupt, or
// the offset of a checksummed record that does not decode, which
// recovery refuses rather than truncates.
func runInspect(args []string) error {
	if len(args) < 1 || args[0] != "wal" {
		return fmt.Errorf("inspect: usage: sketchd inspect wal -dir <wal-dir>")
	}
	fs := flag.NewFlagSet("inspect wal", flag.ExitOnError)
	dir := fs.String("dir", "", "WAL directory to inspect (required)")
	fs.Parse(args[1:])
	if *dir == "" {
		return fmt.Errorf("inspect wal: -dir is required")
	}
	rep, err := wal.InspectDir(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("wal directory: %s\n", rep.Dir)
	var totalRecords uint64
	corrupt := 0
	for _, s := range rep.Segments {
		fmt.Printf("segment %s: %d bytes, seq %d..%d, %d records",
			filepath.Base(s.Path), s.Size, s.FirstSeq, s.LastSeq, s.Records)
		for _, t := range []byte{wal.RecUpdates, wal.RecDigests, wal.RecDelta, wal.RecMark, wal.RecView} {
			if n := s.ByType[t]; n > 0 {
				fmt.Printf(" %s=%d", wal.RecordTypeName(t), n)
			}
		}
		fmt.Println()
		if s.Corrupt != "" {
			corrupt++
			fmt.Printf("  CORRUPT: %s\n", s.Corrupt)
			if s.Undecodable {
				fmt.Printf("  intact through seq %d; undecodable record at offset %d: recovery refuses the log\n",
					s.LastSeq, s.TruncateAt)
			} else {
				fmt.Printf("  intact through seq %d; recovery truncates at offset %d\n",
					s.LastSeq, s.TruncateAt)
			}
		}
		totalRecords += s.Records
	}
	for _, s := range rep.Snapshots {
		if s.Err != "" {
			fmt.Printf("snapshot seq %d: UNUSABLE: %s\n", s.Seq, s.Err)
			continue
		}
		fmt.Printf("snapshot seq %d: %d streams, %d updates, %d bytes (%s)\n",
			s.Seq, s.Streams, s.Updates, s.DataSize, filepath.Base(s.DataPath))
	}
	fmt.Printf("total: %d segments, %d intact records, %d snapshots",
		len(rep.Segments), totalRecords, len(rep.Snapshots))
	if corrupt > 0 {
		fmt.Printf(", %d corrupt segment(s)", corrupt)
	}
	fmt.Println()
	return nil
}

func runStreams(args []string) error {
	fs := flag.NewFlagSet("streams", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "coordinator address")
	fs.Parse(args)
	cli, err := distributed.Dial(*addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	names, err := cli.Streams()
	if err != nil {
		return err
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}
