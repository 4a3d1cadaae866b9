package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
	"setsketch/internal/ingest"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// The per-layer probes time calls into each layer's exported functions
// from here, in-process and on fixed inputs drawn from the run's seed
// (the two wire probes alone talk to a live, idle server).
// Every probe repeats its fixed work probeReps times and reports the
// median, because the memory-bound ones (counter replay, merge) vary
// several percent between identical repetitions on a shared host.
const probeReps = 5

var sink uint64 // keeps probe results alive

// nsPer times fn probeReps times and returns the median nanoseconds
// per unit, where one call of fn does units units of work.
func nsPer(units int, fn func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds()) / float64(units)
	}
	return median(xs)
}

// prober carries what the probes share.
type prober struct {
	h     *harness
	coins distributed.Coins
	hot   [][]datagen.Update // 256 forward_hot batches
	cold  [][]datagen.Update // 32 site_delta_cold batches: one flush cycle
	out   map[string]float64
}

// probeLayers runs every in-process probe and returns the prober with
// their results in out.
func probeLayers(h *harness, seed uint64) (*prober, error) {
	hot, err := genInput(hotSpec, seed, 0, 256)
	if err != nil {
		return nil, err
	}
	cold, err := genInput(coldSpec, seed, 0, 32)
	if err != nil {
		return nil, err
	}
	p := &prober{h: h, coins: benchCoins(), hot: hot.batches, cold: cold.batches, out: map[string]float64{}}
	for _, probe := range []func() error{p.hashing, p.core, p.ingest, p.wal, p.distributed, p.cq, p.datagen, p.wire} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// elems returns the elements of the first n updates of bs.
func elems(bs [][]datagen.Update, n int) []uint64 {
	out := make([]uint64, 0, n)
	for _, b := range bs {
		for _, u := range b {
			if len(out) == n {
				return out
			}
			out = append(out, u.Elem)
		}
	}
	return out
}

func (p *prober) hashing() error {
	poly := hashing.NewPoly(p.coins.Seed, p.coins.Config.FirstWise)
	xs := elems(p.cold, 8192)
	p.out["hashing.poly_hash_ns_per_elem"] = nsPer(len(xs), func() {
		for _, x := range xs {
			sink ^= poly.HashReduced(x)
		}
	})
	return nil
}

func (p *prober) core() error {
	fam, err := p.coins.NewFamily()
	if err != nil {
		return err
	}
	xs := elems(p.cold, 4096)
	p.out["core.digest_batch_ns_per_update"] = nsPer(len(xs), func() {
		for i := 0; i < len(xs); i += batchSize {
			sink ^= fam.DigestBatch(xs[i : i+batchSize])[0][0]
		}
	})
	ds := fam.DigestBatch(xs[:batchSize])
	ones := make([]int64, batchSize)
	for i := range ones {
		ones[i] = 1
	}
	p.out["core.replay_ns_per_update"] = nsPer(64*batchSize, func() {
		for i := 0; i < 64; i++ {
			fam.UpdateBatchDigest(ds, ones)
		}
	})
	other, err := p.coins.NewFamily()
	if err != nil {
		return err
	}
	p.out["core.merge_ns_per_family"] = nsPer(8, func() {
		for i := 0; i < 8; i++ {
			if err = other.Merge(fam); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var buf []byte
	p.out["core.serialize_ns_per_family"] = nsPer(8, func() {
		for i := 0; i < 8; i++ {
			buf = fam.AppendTo(buf[:0])
		}
	})
	p.out["core.family_bytes"] = float64(len(buf))

	// Estimates run over three streams of hot traffic. A cold estimate
	// follows an update, so the family's cached query view is rebuilt;
	// a warm one reuses it.
	fams := map[string]*core.Family{}
	for _, s := range hotSpec.Streams {
		if fams[s], err = p.coins.NewFamily(); err != nil {
			return err
		}
	}
	for _, b := range p.hot[:64] {
		for _, u := range b {
			fams[u.Stream].Update(u.Elem, u.Delta)
		}
	}
	q, err := core.CompileQuery(expr.MustParse("(A | B) - C"))
	if err != nil {
		return err
	}
	estimate := func(touch bool) float64 {
		xs := make([]float64, 4*probeReps)
		for i := range xs {
			if touch {
				for _, f := range fams {
					f.Update(uint64(i), 1)
				}
			}
			start := time.Now()
			est, e := q.Estimate(fams, queryEps, true, core.EstimateOptions{})
			xs[i] = float64(time.Since(start).Nanoseconds())
			sink ^= uint64(est.Value)
			if e != nil {
				err = e
			}
		}
		return median(xs)
	}
	p.out["core.estimate_cold_ns"] = estimate(true)
	p.out["core.estimate_warm_ns"] = estimate(false)
	if err != nil {
		return err
	}
	p.out["expr.parse_compile_ns"] = nsPer(40*len(expressions), func() {
		for i := 0; i < 40; i++ {
			for _, e := range expressions {
				node, e1 := expr.Parse(e)
				if e1 != nil {
					err = e1
					return
				}
				if _, e2 := core.CompileQuery(node); e2 != nil {
					err = e2
				}
			}
		}
	})
	return err
}

// engineRun feeds bs to a fresh one-worker ingest engine and returns
// the time to accept and apply them, the Flush time, the flushed
// deltas and the engine's own counters.
func (p *prober) engineRun(bs [][]datagen.Update) (updateNs, flushNs float64, deltas map[string]*core.Family, reg *obs.Registry, err error) {
	reg = obs.NewRegistry()
	eng, err := ingest.New(p.coins.Config, p.coins.Seed, p.coins.Copies,
		ingest.Options{Workers: 1, BatchSize: batchSize, Obs: reg})
	if err != nil {
		return 0, 0, nil, nil, err
	}
	defer eng.Close()
	start := time.Now()
	for _, b := range bs {
		if err := eng.UpdateBatch(b); err != nil {
			return 0, 0, nil, nil, err
		}
	}
	eng.Drain()
	updateNs = float64(time.Since(start).Nanoseconds())
	start = time.Now()
	deltas = eng.Flush()
	flushNs = float64(time.Since(start).Nanoseconds())
	return updateNs, flushNs, deltas, reg, eng.Err()
}

func (p *prober) ingest() error {
	var hot, cold, flush []float64
	for i := 0; i < probeReps; i++ {
		ns, _, _, _, err := p.engineRun(p.hot[:64])
		if err != nil {
			return err
		}
		hot = append(hot, ns/float64(updates(p.hot[:64])))
		ns, fl, _, reg, err := p.engineRun(p.cold)
		if err != nil {
			return err
		}
		cold = append(cold, ns/float64(updates(p.cold)))
		flush = append(flush, fl)
		var exposed bytes.Buffer
		if err := reg.WritePrometheus(&exposed); err != nil {
			return err
		}
		m, err := parseMetrics(&exposed)
		if err != nil {
			return err
		}
		hits, misses := m["ingest_digest_cache_hits_total"], m["ingest_digest_cache_misses_total"]
		p.out["ingest.digest_cache_hit_ratio"] = ratio(hits, hits+misses)
		p.out["ingest.coalesce_ratio"] = ratio(m["ingest_coalesced_updates_total"], m["ingest_updates_accepted_total"])
	}
	p.out["ingest.update_ns_per_update_hot"] = median(hot)
	p.out["ingest.update_ns_per_update_cold"] = median(cold)
	p.out["ingest.flush_ns"] = median(flush)
	return nil
}

func (p *prober) walOptions(sync wal.SyncPolicy) wal.Options {
	return wal.Options{Config: p.coins.Config, Seed: p.coins.Seed, Copies: p.coins.Copies, Sync: sync}
}

// walAppend appends recs to a fresh log under the given policy and
// returns the mean nanoseconds per record, leaving the closed log's
// directory for the caller to inspect and remove.
func (p *prober) walAppend(sync wal.SyncPolicy, recs []*wal.Record) (nsPerRecord float64, dir string, err error) {
	if dir, err = p.h.walDir(); err != nil {
		return 0, "", err
	}
	l, err := wal.Open(dir, p.walOptions(sync))
	if err != nil {
		return 0, dir, err
	}
	start := time.Now()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			l.Close()
			return 0, dir, err
		}
	}
	ns := float64(time.Since(start).Nanoseconds()) / float64(len(recs))
	return ns, dir, l.Close()
}

// walCost is the WAL's share of one batch: building the record,
// appending it without fsync, the fsync on top, and what the log then
// costs to keep and to read back.
type walCost struct {
	buildNs, appendNs, fsyncNs float64 // per record
	bytesPerUpdate, replayNs   float64 // per update
}

// walRead measures a closed log directory holding n updates: its bytes
// per update and the Replay time per update with a no-op callback.
func (p *prober) walRead(dir string, n int) (bytesPerUpdate, replayNs float64, err error) {
	total, err := dirBytes(dir)
	if err != nil {
		return 0, 0, err
	}
	l, err := wal.Open(dir, p.walOptions(wal.SyncNever))
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	start := time.Now()
	_, err = l.Replay(1, func(*wal.Record) error { return nil })
	return float64(total) / float64(n), float64(time.Since(start).Nanoseconds()) / float64(n), err
}

// walStages measures walCost on bs.
func (p *prober) walStages(bs [][]datagen.Update) (c walCost, err error) {
	dir, err := p.h.walDir()
	if err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, p.walOptions(wal.SyncNever))
	if err != nil {
		return c, err
	}
	recs := make([]*wal.Record, len(bs))
	start := time.Now()
	for i, b := range bs {
		recs[i] = l.BuildUpdates("bench", b)
	}
	c.buildNs = float64(time.Since(start).Nanoseconds()) / float64(len(bs))
	if err := l.Close(); err != nil {
		return c, err
	}
	var never, always []float64
	for i := 0; i < 3; i++ {
		ns, d, err := p.walAppend(wal.SyncNever, recs)
		if err == nil && i == 0 {
			c.bytesPerUpdate, c.replayNs, err = p.walRead(d, updates(bs))
		}
		os.RemoveAll(d)
		if err != nil {
			return c, err
		}
		never = append(never, ns)
		ns, d, err = p.walAppend(wal.SyncAlways, recs)
		os.RemoveAll(d)
		if err != nil {
			return c, err
		}
		always = append(always, ns)
	}
	c.appendNs = median(never)
	c.fsyncNs = median(always) - c.appendNs
	return c, nil
}

func (p *prober) wal() error {
	c, err := p.walStages(p.hot[:64])
	p.out["wal.build_ns_per_update"] = c.buildNs / batchSize
	p.out["wal.append_ns_per_record"] = c.appendNs
	p.out["wal.fsync_ns_per_record"] = c.fsyncNs
	p.out["wal.record_bytes_per_update"] = c.bytesPerUpdate
	p.out["wal.replay_ns_per_update"] = c.replayNs
	return err
}

// coordinator returns a fresh in-process coordinator in the server's
// shape (one shard, default digest cache, serial estimates), with a
// WAL under dir when dir is not empty.
func (p *prober) coordinator(dir string, sync wal.SyncPolicy) (*distributed.Coordinator, *wal.Log, error) {
	c, err := distributed.NewCoordinator(p.coins)
	if err != nil {
		return nil, nil, err
	}
	if err := c.SetShards(1); err != nil {
		return nil, nil, err
	}
	c.SetDigestCache(0)
	c.SetEstimateOptions(core.EstimateOptions{})
	if dir == "" {
		return c, nil, nil
	}
	l, err := wal.Open(dir, p.walOptions(sync))
	if err != nil {
		return nil, nil, err
	}
	c.AttachWAL(l)
	return c, l, nil
}

// applyNs applies bs through a per-session Applier, as the server does
// for one connection, and returns the mean nanoseconds per batch.
func applyNs(c *distributed.Coordinator, bs [][]datagen.Update) (float64, error) {
	a := c.NewApplier()
	start := time.Now()
	for _, b := range bs {
		if err := a.ApplyUpdates("bench", b); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(bs)), nil
}

func (p *prober) distributed() error {
	var plain, durable, recoverNs []float64
	var c *distributed.Coordinator
	for i := 0; i < 3; i++ {
		var err error
		if c, _, err = p.coordinator("", 0); err != nil {
			return err
		}
		ns, err := applyNs(c, p.hot)
		if err != nil {
			return err
		}
		plain = append(plain, ns/batchSize)

		dir, err := p.h.walDir()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cw, l, err := p.coordinator(dir, wal.SyncAlways)
		if err != nil {
			return err
		}
		ns, err = applyNs(cw, p.hot[:64])
		if err != nil {
			return err
		}
		durable = append(durable, ns/batchSize)
		if err := l.Close(); err != nil {
			return err
		}
		cr, _, err := p.coordinator("", 0)
		if err != nil {
			return err
		}
		l2, err := wal.Open(dir, p.walOptions(wal.SyncAlways))
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = cr.Recover(l2)
		recoverNs = append(recoverNs, float64(time.Since(start).Nanoseconds())/float64(updates(p.hot[:64])))
		l2.Close()
		if err != nil {
			return err
		}
	}
	p.out["distributed.apply_ns_per_update"] = median(plain)
	p.out["distributed.apply_wal_ns_per_update"] = median(durable)
	p.out["distributed.recover_ns_per_update"] = median(recoverNs)

	// One site flush cycle's deltas, merged as the coordinator merges
	// them on site_delta_cold.
	_, _, deltas, _, err := p.engineRun(p.cold)
	if err != nil {
		return err
	}
	p.out["distributed.apply_delta_ns"] = nsPer(len(deltas), func() {
		for s, fam := range deltas {
			if e := c.ApplyDelta("bench", s, fam, 1); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	if p.out["distributed.estimate_ns"], err = estimateMixNs(c, p.hot); err != nil {
		return err
	}
	return nil
}

// estimateMixNs is the mean Coordinator.Estimate time under query_mix's
// interleaving: the five expressions in rotation, a batch applied
// before every query (80 batches/s beside 75 queries/s), so every
// estimate rebuilds its cached views.
func estimateMixNs(c *distributed.Coordinator, bs [][]datagen.Update) (float64, error) {
	a := c.NewApplier()
	var total time.Duration
	const n = 100
	for i := 0; i < n; i++ {
		if err := a.ApplyUpdates("bench", bs[i%len(bs)]); err != nil {
			return 0, err
		}
		start := time.Now()
		est, err := c.Estimate(expressions[i%len(expressions)], queryEps)
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
		sink ^= uint64(est.Value)
	}
	return float64(total.Nanoseconds()) / n, nil
}

func (p *prober) cq() error {
	now := time.Unix(1_000_000_000, 0)
	eng, err := cq.NewEngine(cq.Options{NewFamily: p.coins.NewFamily, Now: func() time.Time { return now }})
	if err != nil {
		return err
	}
	st, err := cq.ParseStatement(viewStatement)
	if err != nil {
		return err
	}
	view, err := eng.Register(*st.Create)
	if err != nil {
		return err
	}
	fam, err := p.coins.NewFamily()
	if err != nil {
		return err
	}
	var entries []wal.DigestUpdate
	for _, b := range p.hot[:32] {
		entries = append(entries, wal.DigestUpdates(fam, b)...)
	}
	p.out["cq.observe_ns_per_update"] = nsPer(32*batchSize, func() {
		for i := range entries {
			if e := eng.ObserveDigest(entries[i].Stream, entries[i].Digest, entries[i].Delta); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	p.out["cq.evaluate_ns"] = nsPer(1, func() {
		for _, g := range eng.Evaluate(view, queryEps, core.EstimateOptions{}) {
			if g.Err != "" {
				err = fmt.Errorf("cq evaluate: %s", g.Err)
			}
		}
	})
	if err != nil {
		return err
	}
	p.out["cq.rotate_ns"] = nsPer(1, func() {
		now = now.Add(time.Second)
		eng.RotateAll(now)
	})
	return nil
}

func (p *prober) datagen() error {
	g, err := datagen.NewLoadGen(hotSpec, hashing.NewRNG(1))
	if err != nil {
		return err
	}
	buf := make([]datagen.Update, batchSize)
	p.out["datagen.fill_ns_per_update"] = nsPer(64*batchSize, func() {
		for i := 0; i < 64; i++ {
			g.Fill(buf)
		}
	})
	return nil
}

// ledger attributes one raw 256-update batch's round trip on a
// forward_hot or durable_hot input to stages measured independently
// of that round trip: the wire from the cancelling batches of the wire
// probe, everything else in-process on the workload's own batches.
// coverage = Σ stages / meanRTTus; ROADMAP asks for 0.9–1.1.
func (p *prober) ledger(in *input, durable bool, meanRTTus float64) error {
	bs := in.batches[:min(len(in.batches), 256)]

	// Replay: the coalesced, digest-resolved entries of each batch
	// added to per-stream families, as applyDigestsLocked does.
	scratch, err := p.coins.NewFamily()
	if err != nil {
		return err
	}
	fams := map[string]*core.Family{}
	for _, s := range hotSpec.Streams {
		if fams[s], err = p.coins.NewFamily(); err != nil {
			return err
		}
	}
	var replay, digestAll time.Duration
	for _, b := range bs {
		start := time.Now()
		entries := wal.DigestUpdates(scratch, b)
		mid := time.Now()
		for i := range entries {
			fams[entries[i].Stream].UpdateDigest(entries[i].Digest, entries[i].Delta)
		}
		digestAll += mid.Sub(start)
		replay += time.Since(mid)
	}
	perBatchUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(len(bs)) }

	// Digest: what the applier does before replay — coalesce, digest
	// cache lookups, hashing the misses. The cache is warmed with the
	// workload's own warm-up first, as on the server; the stage is the
	// in-process apply minus the replay measured above.
	c, _, err := p.coordinator("", 0)
	if err != nil {
		return err
	}
	if _, err := applyNs(c, in.warm); err != nil {
		return err
	}
	apply, err := applyNs(c, bs)
	if err != nil {
		return err
	}
	stages := map[string]float64{
		"ledger.wire_us":   p.out["distributed.wire_us_per_batch"],
		"ledger.replay_us": perBatchUs(replay),
		"ledger.digest_us": apply/1e3 - perBatchUs(replay),
	}
	if durable {
		w, err := p.walStages(bs[:min(len(bs), 64)])
		if err != nil {
			return err
		}
		// BuildUpdates digests every survivor itself; the live path
		// hands the applier's entries to Append, so only the assembly
		// beyond digesting belongs to the WAL.
		stages["ledger.wal_build_us"] = max(0, w.buildNs/1e3-perBatchUs(digestAll))
		stages["ledger.wal_append_us"] = w.appendNs / 1e3
		stages["ledger.wal_fsync_us"] = w.fsyncNs / 1e3
	}
	var sum float64
	for name, v := range stages {
		p.out[name] = v
		sum += v
	}
	p.out["ledger.coverage"] = ratio(sum, meanRTTus)
	return nil
}

// wire measures the two wire costs against a live, otherwise idle
// server, with requests that make it do no sketch work. A 256-update
// batch that coalesces to nothing (each element inserted and deleted)
// is encoded, sent, decoded, coalesced, credited and acked, but no
// digest is resolved and no counter moves. A query the parser rejects
// is gob-encoded both ways but never estimated.
func (p *prober) wire() error {
	srv, err := p.h.spawn("")
	if err != nil {
		return err
	}
	defer srv.kill()
	c, err := dial(srv)
	if err != nil {
		return err
	}
	defer c.close()
	b := make([]datagen.Update, batchSize)
	for i := range b {
		b[i] = datagen.Update{Stream: hotSpec.Streams[(i/2)%3], Elem: uint64(i / 2), Delta: 1 - 2*int64(i%2)}
	}
	// meanUs times n calls of fn after 64 untimed ones: the first frames
	// grow buffers and intern names.
	meanUs := func(fn func() error) (float64, error) {
		const n = 512
		xs := make([]float64, 0, n)
		for i := 0; i < n+64; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if i >= 64 {
				xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		return mean(xs), nil
	}
	if p.out["distributed.wire_us_per_batch"], err = meanUs(func() error { return c.send(b) }); err != nil {
		return err
	}
	p.out["distributed.query_wire_us"], err = meanUs(func() error {
		if _, err := c.query.Query("A |", queryEps); err == nil {
			return errors.New("the server estimated the malformed expression \"A |\"")
		}
		return nil
	})
	return err
}

// traceWorkload produces w's per-layer metrics: the probes, one traced
// round beside the untraced one already run with the live /metrics
// deltas of its window, and the ledger.
func traceWorkload(h *harness, w *workload, in *input, sz sizes, base *round, opt options, tr *tracer) (map[string]float64, error) {
	p, err := probeLayers(h, opt.seed)
	if err != nil {
		return nil, err
	}
	out := p.out
	traced, err := runRound(h, w, in, sz, tr)
	if err != nil {
		return nil, err
	}
	out["trace_overhead"] = ratio(traced.updatesPerS(), base.updatesPerS())

	m := traced.scrape
	out["wal.append_busy_s"] = m["wal_append_seconds_sum{}"]
	out["wal.fsync_busy_s"] = m["wal_fsync_seconds_sum{}"]
	out["wal.fsyncs"] = m["wal_fsyncs_total"]
	out["distributed.handle_busy_s"] = m["stream_handle_seconds_sum{}"]
	out["distributed.estimate_busy_s"] = m["estimate_latency_seconds_sum{}"]
	out["distributed.digest_cache_hit_ratio"] = ratio(m["coord_digest_cache_hits_total"],
		m["coord_digest_cache_hits_total"]+m["coord_digest_cache_misses_total"])
	out["distributed.compile_cache_hit_ratio"] = ratio(m["coord_compile_cache_hits_total"],
		m["coord_compile_cache_hits_total"]+m["coord_compile_cache_misses_total"])
	out["gen_late_p90_ms"] = percentile(traced.lateMs, 0.90)
	switch w.driver().(type) {
	case *batchDriver:
		out["distributed.ingest_ack_p50_ms"] = percentile(traced.opMs(), 0.50)
		if err := p.ledger(in, w.durable, mean(base.opMs())*1e3); err != nil {
			return nil, err
		}
	case *mixDriver:
		out["distributed.ingest_ack_p50_ms"] = percentile(traced.ackMs, 0.50)
	}
	return out, nil
}
