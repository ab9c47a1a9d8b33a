package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/server"
	"graphsig/internal/store"
	"graphsig/internal/stream"
)

// endToEnd names every end-to-end metric, as BENCHMARK.json lists them.
var endToEnd = []string{
	"setup_s", "ingest_rps", "ingest_p50_ms", "close_stall_p50_ms",
	"search_p50_ms", "search_sdice_p50_ms", "batch_p50_ms",
	"history_p50_ms", "restart_s", "heap_per_source_kb", "disk_write_kb_per_window",
}

// result is what one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// prefill archives the first n horizon windows the way a server that
// had already ingested them would have left its snapshot: the pool
// windows run once through the stream pipeline, and window w holds the
// signature set of pool window w%pool. It returns the store it saved.
func prefill(cfg server.Config, in *inputs, n int) (*store.Store, error) {
	st, err := store.New(store.Config{Capacity: cfg.StoreCapacity})
	if err != nil {
		return nil, err
	}
	p, err := stream.NewPipeline(cfg.Stream, st.Universe())
	if err != nil {
		return nil, err
	}
	var pool []*core.SignatureSet
	for w := 0; w < len(in.pool); w++ {
		for _, r := range in.window(w) {
			emitted, err := p.Ingest(r)
			if err != nil {
				return nil, err
			}
			pool = append(pool, emitted...)
		}
	}
	last, err := p.Flush()
	if err != nil {
		return nil, err
	}
	pool = append(pool, last)
	for w := 0; w < n; w++ {
		src := pool[w%len(pool)]
		set, err := core.NewSignatureSet(src.Scheme, w, src.Sources, src.Sigs)
		if err != nil {
			return nil, err
		}
		if err := st.Add(set); err != nil {
			return nil, err
		}
	}
	return st, st.Save(cfg.SnapshotDir)
}

// feeder posts the horizon's windows and keeps the ingest figures.
type feeder struct {
	sh     shape
	api    api
	in     *inputs
	ops    ops
	buf    []byte
	sent   int
	total  server.IngestResult // summed over every POST
	timed  bool
	lat    []float64 // ms, timed POSTs that close no window
	closes []float64 // ms, timed POSTs that close a window
	rates  []float64 // records/s of each timed window's POSTs
	closed int       // windows closed by timed POSTs
}

// window posts every batch of horizon window w; after each batch it
// calls between (if non-nil) with the batch's ordinal.
func (f *feeder) window(w int, between func(i int) error) error {
	var busy time.Duration
	accepted := 0
	for i, b := range f.sh.batches(f.in, w) {
		f.buf = encodeIngest(f.buf, b)
		status, body, rtt, err := f.api.timed(http.MethodPost, "/v1/flows", f.buf)
		var res server.IngestResult
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &res)
		} else if err == nil {
			err = fmt.Errorf("POST /v1/flows: status %d: %s", status, body)
		}
		f.ops.note("ingest", err != nil)
		if err != nil {
			return err
		}
		f.sent += len(b)
		f.total.Received += res.Received
		f.total.Accepted += res.Accepted
		f.total.Dropped += res.Dropped
		f.total.Rejected += res.Rejected
		f.total.WindowsClosed += res.WindowsClosed
		if f.timed {
			busy += rtt
			accepted += res.Accepted
			f.closed += res.WindowsClosed
			if res.WindowsClosed > 0 {
				f.closes = append(f.closes, ms(rtt))
			} else {
				f.lat = append(f.lat, ms(rtt))
			}
		}
		if between != nil {
			if err := between(i); err != nil {
				return err
			}
		}
	}
	if f.timed {
		f.rates = append(f.rates, float64(accepted)/busy.Seconds())
	}
	return nil
}

// reader issues the query phase's reads and keeps their latencies.
type reader struct {
	api api
	ops ops
	lat map[string][]float64
}

func (r *reader) do(q query) error {
	var (
		status int
		body   []byte
		rtt    time.Duration
		err    error
	)
	switch q.kind {
	case "search":
		status, body, rtt, err = r.api.timed(http.MethodPost, "/v1/search", searchBody(q.labels[0], "", 0))
	case "sdice":
		status, body, rtt, err = r.api.timed(http.MethodPost, "/v1/search", searchBody(q.labels[0], "sdice", sdiceMaxDist))
	case "batch":
		status, body, rtt, err = r.api.timed(http.MethodPost, "/v1/search/batch", batchBody(q.labels))
	case "history":
		status, body, rtt, err = r.api.timed(http.MethodGet, historyPath(q.labels[0]), nil)
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s %v: status %d: %s", q.kind, q.labels, status, body)
	}
	r.ops.note(q.kind, err != nil)
	if err != nil {
		return err
	}
	r.lat[q.kind] = append(r.lat[q.kind], ms(rtt))
	return nil
}

// stand is one set-up server: the generated inputs, the configuration
// on the run's directories, the server booted on them, the feeder that
// warmed it up, and the live heap just before the boot.
type stand struct {
	dir   string
	in    *inputs
	cfg   server.Config
	n     *node
	f     *feeder
	heap0 uint64
}

// setUp generates the inputs, prefills the snapshot, boots the server
// on dir and feeds it the warm-up windows.
func setUp(sh shape, seed int64, dir string, c *http.Client, o ops) (stand, error) {
	in, err := generate(sh, seed)
	if err != nil {
		return stand{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stand{}, err
	}
	cfg := serverConfig(sh, in, dir)
	if sh.prefill > 0 {
		if _, err := prefill(cfg, in, sh.prefill); err != nil {
			return stand{}, fmt.Errorf("prefill: %w", err)
		}
	}
	heap0 := liveHeap()
	n, err := boot(cfg, c)
	if err != nil {
		return stand{}, err
	}
	f := &feeder{sh: sh, api: httpAPI(c, n.base), in: in, ops: o}
	for w := sh.prefill; w < sh.prefill+sh.warmup; w++ {
		if err := f.window(w, nil); err != nil {
			n.abort()
			return stand{}, err
		}
	}
	return stand{dir: dir, in: in, cfg: cfg, n: n, f: f, heap0: heap0}, nil
}

// runServe is the untraced run: it sets the server up, feeds it over
// HTTP, queries it, restarts it, checks every answer and reports the
// end-to-end metrics.
func runServe(sh shape, seed int64, seconds time.Duration, dir string) (result, map[string]any, error) {
	begin := time.Now()
	steal0, gc0 := stealTicks(), numGC()
	c := newClient()
	defer c.CloseIdleConnections()
	o := ops{}

	// Set-up runs setupRuns times, each from scratch on a directory of its
	// own; setup_s is the median. Every set-up but the last is dropped.
	var st stand
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if st.n != nil {
			if err := st.n.abort(); err != nil {
				return result{}, nil, err
			}
			if err := os.RemoveAll(st.dir); err != nil {
				return result{}, nil, err
			}
			st = stand{}
			runtime.GC()
		}
		t := time.Now()
		var err error
		if st, err = setUp(sh, seed, filepath.Join(dir, strconv.Itoa(i)), c, o); err != nil {
			return result{}, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	in, f := st.in, st.f
	live := st.n
	st.n = nil // the restarts drop it
	defer func() {
		if live != nil {
			live.stop()
		}
	}()
	// served reaches whichever server is live: the restarts replace it.
	served := api(func(method, path string, body []byte) (int, []byte, error) {
		return httpAPI(c, live.base)(method, path, body)
	})
	f.api = served
	rd := &reader{api: served, ops: o, lat: map[string][]float64{}}

	// Each restart adds up the live server's flow counters, since a boot
	// starts them from zero, drops the server with Abort (the kill -9
	// path) and boots it again on the same directories bootsPerCycle
	// times. The snapshot holds every closed window and the WAL the open
	// window's records, so every boot loads the snapshot, replays the
	// open window from the WAL and attaches the segments. A boot writes
	// nothing, as the replay closes no window, so the boots before the
	// last are dropped with Abort as well. Every boot starts after a
	// forced GC, so that no collection left over from earlier work lands
	// in it. The last boot must serve every retained window and a sample
	// of histories exactly as before, and it serves the rest of the run.
	counters := map[string]int64{}
	addCounters := func() error {
		var cs map[string]int64
		if err := served.json(http.MethodGet, "/metrics", nil, &cs); err != nil {
			return err
		}
		for k, v := range cs {
			counters[k] += v
		}
		return nil
	}
	var restarts []float64
	restart := func(closed int) error {
		if err := addCounters(); err != nil {
			return err
		}
		a, err := readArchive(live.srv.Store(), expectedWindows(sh, closed))
		if err != nil {
			return err
		}
		want := captureWant(a, in.labels)
		for b := 0; b < bootsPerCycle; b++ {
			if err := live.abort(); err != nil {
				return err
			}
			live = nil
			runtime.GC()
			t := time.Now()
			m, err := boot(st.cfg, c)
			o.note("restart", err != nil)
			if err != nil {
				return err
			}
			restarts = append(restarts, time.Since(t).Seconds())
			live = m
			if m.srv.Recovery().WALRecords == 0 {
				return fmt.Errorf("boot replayed no WAL records")
			}
		}
		return checkRestart(served, live.srv.Store(), want, sh, closed)
	}

	// The timed part: cycles of an ingest phase, a query phase and a
	// restart, so that every metric samples the whole run rather than one
	// slice of it; the host's speed drifts by several percent over
	// seconds. Tiered also interleaves reads with the writes on a fixed
	// schedule; their latencies are kept apart from the query phases'.
	timedStart := time.Now()
	inter := &reader{api: served, ops: o, lat: map[string][]float64{}}
	rng := rand.New(rand.NewSource(seed))
	between := func(i int) error {
		if !sh.interleave {
			return nil
		}
		kind := "search"
		if i%2 == 1 {
			kind = "history"
		}
		return inter.do(query{kind, []string{in.labels[rng.Intn(len(in.labels))]}})
	}
	var ingestWall, queryWall, restartWall time.Duration
	var written int64 // storage writes over the ingest phases
	var heap1 uint64
	ioOK := true
	rounds := sh.queryRounds(seconds)
	w := sh.prefill + sh.warmup
	for cycle := 0; cycle < sh.cycles; cycle++ {
		t := time.Now()
		wb0, ok0 := writeBytes()
		f.timed = true
		for end := w + sh.ingest/sh.cycles; w < end; w++ {
			if err := f.window(w, between); err != nil {
				return result{}, nil, err
			}
		}
		f.timed = false
		wb1, ok1 := writeBytes()
		written += wb1 - wb0
		ioOK = ioOK && ok0 && ok1
		ingestWall += time.Since(t)
		if cycle == sh.cycles-1 {
			heap1 = liveHeap()
		}
		t = time.Now()
		for r := 0; r < rounds; r++ {
			for _, q := range queryRound(rng, in.labels) {
				if err := rd.do(q); err != nil {
					return result{}, nil, err
				}
			}
		}
		queryWall += time.Since(t)
		t = time.Now()
		if err := restart(w - 2); err != nil {
			return result{}, nil, fmt.Errorf("restart in cycle %d: %w", cycle+1, err)
		}
		restartWall += time.Since(t)
	}
	timedWall := time.Since(timedStart)

	// Checks on the live server, booted by the last restart.
	last := sh.windows() - 2 // the last fed window is still open
	if err := addCounters(); err != nil {
		return result{}, nil, err
	}
	if err := checkAccounting(f.sent, f.total, counters, last+1); err != nil {
		return result{}, nil, fmt.Errorf("flow accounting: %w", err)
	}
	if f.total.Accepted != f.sent {
		return result{}, nil, fmt.Errorf("flow accounting: %d of %d records accepted", f.total.Accepted, f.sent)
	}
	a, err := readArchive(live.srv.Store(), expectedWindows(sh, last))
	if err != nil {
		return result{}, nil, err
	}
	if err := checkArchive(sh, in, a, last); err != nil {
		return result{}, nil, err
	}
	if err := checkAnswers(served, a, in.labels, seed); err != nil {
		return result{}, nil, err
	}
	// Shutdown closes the open window, which the last boot rebuilt from
	// the WAL.
	n := live
	live = nil
	if err := n.stop(); err != nil {
		return result{}, nil, err
	}
	a, err = readArchive(n.srv.Store(), expectedWindows(sh, last+1))
	if err == nil {
		err = checkArchive(sh, in, a, last+1)
	}
	if err != nil {
		return result{}, nil, fmt.Errorf("after shutdown: %w", err)
	}
	if !ioOK || written <= 0 {
		return result{}, nil, fmt.Errorf("no storage writes seen in /proc/self/io over the ingest phases (is the state on tmpfs?)")
	}

	attempted, failed := o.totals()
	res := result{
		Correct:   true,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":                  {median(setups), "s"},
			"ingest_rps":               {median(f.rates), "1/s"},
			"ingest_p50_ms":            {median(f.lat), "ms"},
			"close_stall_p50_ms":       {median(f.closes), "ms"},
			"search_p50_ms":            {median(rd.lat["search"]), "ms"},
			"search_sdice_p50_ms":      {median(rd.lat["sdice"]), "ms"},
			"batch_p50_ms":             {median(rd.lat["batch"]), "ms"},
			"history_p50_ms":           {median(rd.lat["history"]), "ms"},
			"restart_s":                {median(restarts), "s"},
			"heap_per_source_kb":       {float64(heap1-min(st.heap0, heap1)) / 1024 / float64(in.sources), "KiB"},
			"disk_write_kb_per_window": {float64(written) / 1024 / float64(f.closed), "KiB"},
		},
	}
	diag := map[string]any{
		"host":            host(),
		"steal_s":         float64(stealTicks()-steal0) / 100,
		"gc_cycles":       numGC() - gc0,
		"peak_rss_mb":     peakRSSMB(),
		"ops":             o.table(),
		"wall_s":          time.Since(begin).Seconds(),
		"setups_s":        setups,
		"ingest_wall_s":   ingestWall.Seconds(),
		"query_wall_s":    queryWall.Seconds(),
		"restart_wall_s":  restartWall.Seconds(),
		"timed_wall_s":    timedWall.Seconds(),
		"query_rounds":    rounds * sh.cycles,
		"restarts_s":      restarts,
		"closes_ms":       f.closes,
		"samples":         map[string]int{"ingest": len(f.lat), "close": len(f.closes), "search": len(rd.lat["search"]), "sdice": len(rd.lat["sdice"]), "batch": len(rd.lat["batch"]), "history": len(rd.lat["history"]), "restart": len(restarts)},
		"records_sent":    f.sent,
		"windows_closed":  f.total.WindowsClosed,
		"interleaved_p50": map[string]float64{"search_ms": median(inter.lat["search"]), "history_ms": median(inter.lat["history"])},
		"search_p90_ms":   quantile(rd.lat["search"], 0.9),
	}
	return res, diag, nil
}

// checkArchive runs the archive checks: the retained windows, and every
// signature against the records.
func checkArchive(sh shape, in *inputs, a archive, last int) error {
	if err := checkWindows(a, expectedWindows(sh, last)); err != nil {
		return err
	}
	return checkSignatures(a, in, sigLength)
}

// checkAnswers compares a sample of served answers, hot and cold, with
// brute-force answers over the archive read back window by window, and
// every batch slot with the same single search.
func checkAnswers(served api, a archive, labels []string, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var sample []string
	for i := 0; i < checkQueries; i++ {
		sample = append(sample, labels[rng.Intn(len(labels))])
	}
	singles := map[string][]server.SearchHitJSON{}
	for _, l := range sample {
		for _, q := range []struct {
			dist    string
			d       core.Distance
			maxDist float64
		}{{"", core.Jaccard{}, 0}, {"sdice", core.ScaledDice{}, sdiceMaxDist}} {
			want, err := bruteSearch(a, q.d, l, q.maxDist, topK)
			if err != nil {
				return err
			}
			var got server.SearchResponse
			if err := served.json(http.MethodPost, "/v1/search", searchBody(l, q.dist, q.maxDist), &got); err != nil {
				return err
			}
			if err := compareHits(want, got.Hits); err != nil {
				return fmt.Errorf("search %s %q: %w", q.d.Name(), l, err)
			}
			if q.dist == "" {
				singles[l] = got.Hits
			}
		}
		var h server.HistoryResponse
		if err := served.json(http.MethodGet, historyPath(l), nil, &h); err != nil {
			return err
		}
		if err := compareHistory(bruteHistory(a, l), h.History); err != nil {
			return fmt.Errorf("history %q: %w", l, err)
		}
	}
	var b server.BatchSearchResponse
	if err := served.json(http.MethodPost, "/v1/search/batch", batchBody(sample), &b); err != nil {
		return err
	}
	if len(b.Results) != len(sample) {
		return fmt.Errorf("batch: %d results for %d queries", len(b.Results), len(sample))
	}
	for i, l := range sample {
		if b.Results[i].Error != "" {
			return fmt.Errorf("batch slot %d: %s", i, b.Results[i].Error)
		}
		if err := compareHits(singles[l], b.Results[i].Hits); err != nil {
			return fmt.Errorf("batch slot %d (%q) differs from its single search: %w", i, l, err)
		}
	}
	return nil
}

// restartWant is what every boot after a shutdown must serve again: a
// digest of each retained window, and the history of sampled labels.
type restartWant struct {
	digests map[int]string
	history map[string][]server.HistoryEntryJSON
}

func captureWant(before archive, labels []string) restartWant {
	w := restartWant{digests: digests(before), history: map[string][]server.HistoryEntryJSON{}}
	for i := 0; i < checkQueries; i++ {
		l := labels[i*len(labels)/checkQueries]
		w.history[l] = bruteHistory(before, l)
	}
	return w
}

// checkRestart compares a rebooted server with the archive captured
// after the previous shutdown: every retained window, and the served
// history of a sample of labels.
func checkRestart(served api, st *store.Store, want restartWant, sh shape, last int) error {
	after, err := readArchive(st, expectedWindows(sh, last))
	if err != nil {
		return err
	}
	if err := checkWindows(after, expectedWindows(sh, last)); err != nil {
		return err
	}
	if err := compareDigests(want.digests, digests(after)); err != nil {
		return err
	}
	for l, hist := range want.history {
		var h server.HistoryResponse
		if err := served.json(http.MethodGet, historyPath(l), nil, &h); err != nil {
			return err
		}
		if err := compareHistory(hist, h.History); err != nil {
			return fmt.Errorf("history %q: %w", l, err)
		}
	}
	return nil
}

// runDir makes a fresh directory for one run's server state under the
// checkout's build directory, on the disk-backed file system.
func runDir(workload string, seed int64) (string, error) {
	root := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, fmt.Sprintf("%s-%d-", workload, seed))
}
