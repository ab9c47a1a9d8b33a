package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/distmat"
	"graphsig/internal/netflow"
	"graphsig/internal/obs"
	"graphsig/internal/segment"
	"graphsig/internal/server"
	"graphsig/internal/store"
	"graphsig/internal/stream"
	"graphsig/internal/wal"
)

// runTraced is the layer-by-layer run of a workload, on the same inputs
// as the untraced run:
//
//  1. the server driven through its library calls (IngestBatch, its
//     handler for queries, Shutdown and New for the restart);
//  2. the same records replayed through each layer's public functions
//     in the order the server calls them, Pipeline.Ingest → WAL.Append
//     → Store.Add → Store.Save → WAL.Reset, whose archive must equal the
//     served one window for window;
//  3. queries through the store, the distance kernels and the segment
//     files.
//
// Every call runs under a span; the per-layer metrics are read from the
// spans, which are written to .bench_build when the run ends.
func runTraced(sh shape, seed int64, seconds time.Duration, dir string) (result, map[string]any, error) {
	begin := time.Now()
	steal0, gc0 := stealTicks(), numGC()
	in, err := generate(sh, seed)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	o := ops{}
	m := map[string]metric{}

	// Step 1: the server through its library calls.
	if err := os.MkdirAll(filepath.Join(dir, "served"), 0o755); err != nil {
		return result{}, nil, err
	}
	cfg := serverConfig(sh, in, filepath.Join(dir, "served"))
	var pre *store.Store
	if sh.prefill > 0 {
		if pre, err = prefill(cfg, in, sh.prefill); err != nil {
			return result{}, nil, fmt.Errorf("prefill: %w", err)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return result{}, nil, err
	}
	lib := handlerAPI(srv.Handler())
	var total server.IngestResult
	sent := 0
	var calls []float64
	for w := sh.prefill; w < sh.windows(); w++ {
		timed := w >= sh.prefill+sh.warmup
		for _, b := range sh.batches(in, w) {
			var res server.IngestResult
			id := tr.begin("ingest", "")
			res = srv.IngestBatch("", b)
			tr.end(id)
			o.note("ingest", res.Rejected > 0)
			sent += len(b)
			total.Received += res.Received
			total.Accepted += res.Accepted
			total.Dropped += res.Dropped
			total.Rejected += res.Rejected
			total.WindowsClosed += res.WindowsClosed
			if timed && res.WindowsClosed == 0 {
				calls = append(calls, float64(tr.spans[id].End-tr.spans[id].Start)/1e6)
			}
		}
	}
	last := sh.windows() - 2
	var counters map[string]int64
	if err := lib.json(http.MethodGet, "/metrics", nil, &counters); err != nil {
		srv.Abort()
		return result{}, nil, err
	}
	if err := checkAccounting(sent, total, counters, last+1); err != nil {
		srv.Abort()
		return result{}, nil, fmt.Errorf("flow accounting: %w", err)
	}
	servedArchive, err := readArchive(srv.Store(), expectedWindows(sh, last))
	if err == nil {
		err = checkArchive(sh, in, servedArchive, last)
	}
	if err == nil {
		err = checkAnswers(lib, servedArchive, in.labels, seed)
	}
	if err != nil {
		srv.Abort()
		return result{}, nil, err
	}
	served := digests(servedArchive)
	rng := rand.New(rand.NewSource(seed))
	var respBytes []float64
	for i := 0; i < layerQueries; i++ {
		body := searchBody(in.labels[rng.Intn(len(in.labels))], "", 0)
		var status int
		var raw []byte
		tr.do("search", "jaccard", func() { status, raw, err = lib(http.MethodPost, "/v1/search", body) })
		o.note("search", err != nil || status != http.StatusOK)
		if err != nil || status != http.StatusOK {
			srv.Abort()
			return result{}, nil, fmt.Errorf("search: status %d: %v", status, err)
		}
		respBytes = append(respBytes, float64(len(raw)))
	}
	if err := srv.Shutdown(); err != nil {
		return result{}, nil, err
	}
	before, err := readArchive(srv.Store(), expectedWindows(sh, last+1))
	if err != nil {
		return result{}, nil, err
	}
	srv2, err := server.New(cfg)
	o.note("restart", err != nil)
	if err != nil {
		return result{}, nil, err
	}
	err = checkRestart(handlerAPI(srv2.Handler()), srv2.Store(), captureWant(before, in.labels), sh, last+1)
	if serr := srv2.Shutdown(); err == nil {
		err = serr
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("restart: %w", err)
	}
	m["server.ingest_call_ms"] = metric{median(calls), "ms"}
	m["server.search_response_bytes"] = metric{median(respBytes), "B"}
	libWall := time.Since(begin)

	// Step 2: the same records through each layer.
	replayStart := time.Now()
	spans0 := len(tr.spans)
	lay, err := replayLayers(sh, in, filepath.Join(dir, "layers"), pre, tr, o, m)
	if err != nil {
		return result{}, nil, err
	}
	replayed, err := readArchive(lay.st, expectedWindows(sh, last))
	if err != nil {
		return result{}, nil, err
	}
	if err := compareDigests(served, digests(replayed)); err != nil {
		return result{}, nil, fmt.Errorf("layered replay differs from the served archive: %w", err)
	}

	// Step 3: queries through the layers.
	// The query rounds repeat until the run has measured for `seconds`.
	if err := queryLayers(lay, replayed, in.labels, rng, begin.Add(seconds), tr, o, m); err != nil {
		return result{}, nil, err
	}
	if err := segmentLayer(replayed, filepath.Join(dir, "segbench"), tr, o, m); err != nil {
		return result{}, nil, err
	}
	replayWall := time.Since(replayStart)

	for _, name := range perLayer {
		if _, ok := m[name]; !ok {
			return result{}, nil, fmt.Errorf("per-layer metric %s not measured", name)
		}
	}
	spanNS, clockNS := spanCost()
	nspans := len(tr.spans) - spans0
	// Two clock reads per replayed record time the closing Ingest calls.
	overhead := float64(nspans)*spanNS + float64(2*sent)*clockNS
	tracePath := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", sh.name, seed))
	if err := tr.write(tracePath); err != nil {
		return result{}, nil, err
	}
	attempted, failed := o.totals()
	diag := map[string]any{
		"host":                 host(),
		"steal_s":              float64(stealTicks()-steal0) / 100,
		"peak_rss_mb":          peakRSSMB(),
		"gc_cycles":            numGC() - gc0,
		"ops":                  o.table(),
		"wall_s":               time.Since(begin).Seconds(),
		"library_wall_s":       libWall.Seconds(),
		"layers_wall_s":        replayWall.Seconds(),
		"layer_self_ms":        tr.selfTimes(),
		"spans":                nspans,
		"span_cost_ns":         spanNS,
		"trace_overhead_share": overhead / float64(replayWall),
		"trace_file":           tracePath,
	}
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m}, diag, nil
}

// perLayer names every per-layer metric, as BENCHMARK.json lists them.
var perLayer = []string{
	"server.ingest_call_ms", "server.search_response_bytes",
	"stream.observe_ns", "stream.close_ms", "stream.sources",
	"sketch.kb_per_source",
	"wal.append_ms", "wal.bytes_per_record", "wal.reset_ms", "wal.replay_ms",
	"distmat.setview_ms", "distmat.neighbors_us", "distmat.prefilter_skip_ratio",
	"store.add_ms", "store.save_ms", "store.save_kb", "store.load_ms",
	"store.search_ms", "store.search_sdice_ms", "store.batch_ms", "store.history_ms", "store.probes",
	"segment.write_ms", "segment.kb_per_window", "segment.read_window_ms", "segment.open_ms",
}

// layered is the state the layer replay leaves for the query step.
type layered struct {
	st        *store.Store
	views     []*distmat.SetView // the hot windows' views, oldest first
	prefilter distmat.Metrics    // counts the SDice querier's prefilter work
}

// replayLayers feeds the horizon's fed windows through the layers the
// way Server.IngestBatch does, one batch at a time.
func replayLayers(sh shape, in *inputs, dir string, pre *store.Store, tr *tracer, o ops, m map[string]metric) (*layered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := serverConfig(sh, in, dir)
	scfg := store.Config{Capacity: sh.capacity}
	var st *store.Store
	var err error
	if pre != nil {
		if err := pre.Save(cfg.SnapshotDir); err != nil {
			return nil, err
		}
		st, err = store.Load(cfg.SnapshotDir, scfg)
	} else {
		st, err = store.New(scfg)
	}
	if err != nil {
		return nil, err
	}
	if sh.segments {
		if _, err := st.AttachSegments(cfg.SegmentDir); err != nil {
			return nil, err
		}
	}
	walPath := server.WALPath(cfg.SnapshotDir)
	log, _, err := wal.Open(walPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if log != nil {
			log.Close()
		}
	}()
	p, err := stream.NewPipeline(cfg.Stream, st.Universe())
	if err != nil {
		return nil, err
	}
	lay := &layered{st: st}
	originLogged := false
	var walBytes, walRecords int64
	var saveKB, sources []float64
	var walErr error
	appendWAL := func(recs []netflow.Record) {
		if len(recs) == 0 || walErr != nil {
			return
		}
		tr.do("wal.append", "", func() {
			if !originLogged {
				origin, _ := p.Origin()
				if walErr = log.AppendOrigin(origin, cfg.Stream.WindowSize); walErr != nil {
					return
				}
				originLogged = true
			}
			size0, _ := log.Size()
			if walErr = log.Append(recs); walErr != nil {
				return
			}
			size1, _ := log.Size()
			walBytes += size1 - size0
			walRecords += int64(len(recs))
		})
	}
	var pending []netflow.Record
	for w := sh.prefill; w < sh.windows(); w++ {
		if w == sh.prefill+sh.warmup {
			tr.startTimed()
			walBytes, walRecords, saveKB, sources = 0, 0, nil, nil
		}
		for _, b := range sh.batches(in, w) {
			id := tr.begin("stream.ingest", "")
			pending = pending[:0]
			for _, r := range b {
				before := p.Ingested()
				t0 := tr.now()
				emitted, err := p.Ingest(r)
				if err != nil {
					return nil, err
				}
				if len(emitted) > 0 {
					tr.add("stream.close", t0, tr.now())
					appendWAL(pending)
					pending = pending[:0]
					commitLayers(tr, st, lay, emitted, sh.capacity, &sources)
					var serr error
					tr.do("checkpoint", "", func() {
						tr.do("store.save", "", func() { serr = st.Save(cfg.SnapshotDir) })
						if serr != nil {
							return
						}
						tr.do("wal.reset", "", func() { serr = log.Reset() })
						if serr != nil {
							return
						}
						origin, _ := p.Origin()
						tr.do("wal.origin", "", func() { serr = log.AppendOrigin(origin, cfg.Stream.WindowSize) })
						originLogged = true
					})
					if serr != nil {
						return nil, serr
					}
					saveKB = append(saveKB, float64(dirSize(cfg.SnapshotDir))/1024)
				}
				if p.Ingested() > before {
					pending = append(pending, r)
				}
			}
			appendWAL(pending)
			tr.end(id)
			o.note("replay", walErr != nil)
			if walErr != nil {
				return nil, walErr
			}
		}
	}
	openSources := len(in.truthOf(sh.windows() - 1).sessions)
	observe := tr.selfTimes()["stream"]
	for _, d := range tr.durations("stream.close", "") {
		observe -= d
	}
	records := 0
	for w := sh.prefill + sh.warmup; w < sh.windows(); w++ {
		records += len(in.pool[w%len(in.pool)])
	}
	m["stream.observe_ns"] = metric{observe * 1e6 / float64(records), "ns"}
	m["stream.close_ms"] = metric{median(tr.durations("stream.close", "")), "ms"}
	m["stream.sources"] = metric{median(sources), "count"}
	m["wal.append_ms"] = metric{median(tr.durations("wal.append", "")), "ms"}
	m["wal.bytes_per_record"] = metric{float64(walBytes) / float64(walRecords), "B"}
	m["wal.reset_ms"] = metric{median(tr.durations("wal.reset", "")), "ms"}
	m["distmat.setview_ms"] = metric{median(tr.durations("distmat.setview", "")), "ms"}
	m["store.add_ms"] = metric{median(tr.durations("store.add", "")), "ms"}
	m["store.save_ms"] = metric{median(tr.durations("store.save", "")), "ms"}
	m["store.save_kb"] = metric{median(saveKB), "KiB"}

	// The open window's sketch state: the live heap with and without
	// the pipeline that holds it.
	withSketches := liveHeap()
	runtime.KeepAlive(p)
	p = nil
	m["sketch.kb_per_source"] = metric{float64(withSketches-min(liveHeap(), withSketches)) / 1024 / float64(openSources), "KiB"}

	// Restart-side reads of the layers' own files: WAL replay of the
	// open window, and snapshot load.
	if err := log.Close(); err != nil {
		return nil, err
	}
	log = nil
	for i := 0; i < restartBoots; i++ {
		var rep wal.Replay
		var rerr error
		tr.do("wal.replay", "", func() {
			var l *wal.WAL
			l, rep, rerr = wal.Open(walPath)
			if rerr == nil {
				rerr = l.Close()
			}
		})
		o.note("wal.replay", rerr != nil)
		if rerr != nil {
			return nil, rerr
		}
		if len(rep.Records) != len(in.pool[(sh.windows()-1)%len(in.pool)]) {
			return nil, fmt.Errorf("WAL replays %d records, the open window has %d", len(rep.Records), len(in.pool[(sh.windows()-1)%len(in.pool)]))
		}
		var loaded *store.Store
		tr.do("store.load", "", func() { loaded, rerr = store.Load(cfg.SnapshotDir, scfg) })
		o.note("store.load", rerr != nil)
		if rerr != nil {
			return nil, rerr
		}
		if loaded.Len() != st.Len() {
			return nil, fmt.Errorf("snapshot loads %d windows, the store holds %d", loaded.Len(), st.Len())
		}
	}
	m["wal.replay_ms"] = metric{median(tr.durations("wal.replay", "")), "ms"}
	m["store.load_ms"] = metric{median(tr.durations("store.load", "")), "ms"}
	return lay, nil
}

// commitLayers archives closed windows as Server.commitWindowLocked
// does, and builds each kept window's SetView apart so its cost shows.
// A window whose index the store already holds is dropped, as the
// server drops it.
func commitLayers(tr *tracer, st *store.Store, lay *layered, emitted []*core.SignatureSet, capacity int, sources *[]float64) {
	tr.do("window.commit", "", func() {
		for _, set := range emitted {
			var aerr error
			tr.do("store.add", "", func() { aerr = st.Add(set) })
			if aerr != nil {
				continue
			}
			var v *distmat.SetView
			tr.do("distmat.setview", "", func() { v = distmat.NewSetView(set) })
			lay.views = append(lay.views, v)
			if len(lay.views) > capacity {
				lay.views = lay.views[1:]
			}
			*sources = append(*sources, float64(len(set.Sources)))
		}
	})
}

// queryLayers runs label searches, batches and history lookups through
// the store, and the same query signatures through distmat.Querier over
// each hot window's SetView.
func queryLayers(lay *layered, a archive, labels []string, rng *rand.Rand, until time.Time, tr *tracer, o ops, m map[string]metric) error {
	var checked, skipped obs.Counter
	lay.prefilter = distmat.Metrics{PrefilterChecked: &checked, PrefilterSkipped: &skipped}
	var probes []float64
	for round := 0; round == 0 || time.Now().Before(until); round++ {
		if err := queryRoundLayers(lay, a, labels, rng, tr, o, round == 0, &probes); err != nil {
			return err
		}
	}
	if checked.Value() == 0 {
		return fmt.Errorf("the SDice queries reached no prefilter candidate")
	}
	m["store.search_ms"] = metric{median(tr.durations("store.search", "jaccard")), "ms"}
	m["store.search_sdice_ms"] = metric{median(tr.durations("store.search", "sdice")), "ms"}
	m["store.batch_ms"] = metric{median(tr.durations("store.batch", "")), "ms"}
	m["store.history_ms"] = metric{median(tr.durations("store.history", "")), "ms"}
	m["store.probes"] = metric{median(probes), "count"}
	m["distmat.neighbors_us"] = metric{1000 * median(tr.durations("distmat.neighbors", "jaccard")), "us"}
	m["distmat.prefilter_skip_ratio"] = metric{float64(skipped.Value()) / float64(checked.Value()), "ratio"}
	return nil
}

// queryRoundLayers runs one round of layer queries; the first round also
// checks the store's answers against the brute-force ranking.
func queryRoundLayers(lay *layered, a archive, labels []string, rng *rand.Rand, tr *tracer, o ops, check bool, probes *[]float64) error {
	st := lay.st
	jq, _ := distmat.NewQuerier(core.Jaccard{})
	defer jq.Release()
	sq, _ := distmat.NewQuerier(core.ScaledDice{})
	defer sq.Release()
	sq.SetMetrics(lay.prefilter)
	for i := 0; i < layerQueries; i++ {
		l := labels[rng.Intn(len(labels))]
		var stats store.SearchStats
		var hits []store.Hit
		var err error
		tr.do("store.search", "jaccard", func() {
			hits, err = st.SearchLabel(core.Jaccard{}, l, store.SearchOptions{TopK: topK, Stats: &stats})
		})
		o.note("store.search", err != nil)
		if err != nil {
			return err
		}
		*probes = append(*probes, float64(stats.Probes))
		if check && i < checkQueries {
			if err := checkStoreHits(a, core.Jaccard{}, l, 0, hits); err != nil {
				return err
			}
		}
		tr.do("store.search", "sdice", func() {
			hits, err = st.SearchLabel(core.ScaledDice{}, l, store.SearchOptions{TopK: topK, MaxDist: sdiceMaxDist})
		})
		o.note("store.search_sdice", err != nil)
		if err != nil {
			return err
		}
		if check && i < checkQueries {
			if err := checkStoreHits(a, core.ScaledDice{}, l, sdiceMaxDist, hits); err != nil {
				return err
			}
		}
		tr.do("store.history", "", func() { _, _, err = st.HistoryRange(l, math.MinInt, math.MaxInt, 0) })
		o.note("store.history", err != nil)
		if err != nil {
			return err
		}
		sig, _, ok := st.LatestSignature(l)
		if !ok {
			return fmt.Errorf("label %q has no archived signature", l)
		}
		for _, v := range lay.views {
			tr.do("distmat.neighbors", "jaccard", func() { jq.Neighbors(v, sig, 1, func(int, float64) {}) })
			tr.do("distmat.neighbors", "sdice", func() { sq.Neighbors(v, sig, sdiceMaxDist, func(int, float64) {}) })
		}
	}
	for i := 0; i < layerQueries/4; i++ {
		var qs []store.BatchQuery
		for j := 0; j < batchQueries; j++ {
			l := labels[rng.Intn(len(labels))]
			sig, _, ok := st.LatestSignature(l)
			if !ok {
				return fmt.Errorf("label %q has no archived signature", l)
			}
			qs = append(qs, store.BatchQuery{Sig: sig, Opts: store.SearchOptions{TopK: topK, ExcludeLabel: l}})
		}
		var err error
		tr.do("store.batch", "", func() { _, err = st.SearchBatch(core.Jaccard{}, qs) })
		o.note("store.batch", err != nil)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkStoreHits compares a store search with the brute-force ranking.
func checkStoreHits(a archive, d core.Distance, label string, maxDist float64, hits []store.Hit) error {
	want, err := bruteSearch(a, d, label, maxDist, topK)
	if err != nil {
		return err
	}
	got := make([]server.SearchHitJSON, len(hits))
	for i, h := range hits {
		got[i] = server.SearchHitJSON{Label: h.Label, Window: h.Window, Dist: h.Dist}
	}
	if err := compareHits(want, got); err != nil {
		return fmt.Errorf("store search %s %q: %w", d.Name(), label, err)
	}
	return nil
}

// segmentLayer writes every archived window as its own segment file, as
// compaction does when one window leaves the ring, then opens each file
// and reads its window back.
func segmentLayer(a archive, dir string, tr *tracer, o ops, m map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var kb []float64
	var paths []string
	for _, set := range a.sets {
		var seg *segment.Segment
		var err error
		tr.do("segment.write", "", func() { seg, err = segment.Write(dir, []*core.SignatureSet{set}, a.u) })
		o.note("segment.write", err != nil)
		if err != nil {
			return err
		}
		kb = append(kb, float64(seg.Size())/1024)
		paths = append(paths, seg.Path())
	}
	want := digests(a)
	for i, p := range paths {
		var seg *segment.Segment
		var err error
		tr.do("segment.open", "", func() { seg, err = segment.Open(p, a.u) })
		o.note("segment.open", err != nil)
		if err != nil {
			return err
		}
		var set *core.SignatureSet
		w := a.sets[i].Window
		tr.do("segment.read_window", "", func() { set, err = seg.ReadWindow(w) })
		o.note("segment.read_window", err != nil)
		if err != nil {
			return err
		}
		if got := digests(archive{u: a.u, sets: []*core.SignatureSet{set}}); got[w] != want[w] {
			return fmt.Errorf("segment of window %d reads back different content", w)
		}
	}
	m["segment.write_ms"] = metric{median(tr.durations("segment.write", "")), "ms"}
	m["segment.kb_per_window"] = metric{median(kb), "KiB"}
	m["segment.open_ms"] = metric{median(tr.durations("segment.open", "")), "ms"}
	m["segment.read_window_ms"] = metric{median(tr.durations("segment.read_window", "")), "ms"}
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
