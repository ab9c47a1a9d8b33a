package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/server"
	"graphsig/internal/store"
)

// tiny shrinks a workload to a few dozen hosts and a handful of windows
// while keeping its shape: the same phases, ring and cold tier.
func tiny(sh shape) shape {
	sh.pool = 2
	sh.batch = 250
	switch sh.name {
	case "ingest":
		sh.hosts, sh.capacity, sh.prefill, sh.warmup, sh.ingest, sh.cycles = 30, 3, 2, 1, 4, 2
	case "search":
		sh.hosts, sh.capacity, sh.prefill, sh.warmup, sh.ingest, sh.cycles = 30, 3, 3, 1, 2, 2
	case "tiered":
		sh.hosts, sh.capacity, sh.warmup, sh.ingest, sh.cycles = 20, 2, 1, 4, 2
	}
	return sh
}

// testDir is a state directory on the same file system as the package,
// since the disk-write metric reads 0 on tmpfs.
func testDir(t *testing.T) string {
	t.Helper()
	root := filepath.Join(".bench_build", "test")
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(filepath.Join(".bench_build")) })
	return dir
}

// TestWorkloads runs every workload on tiny inputs, untraced and
// traced, with all of its checks.
func TestWorkloads(t *testing.T) {
	want := map[bool][]string{false: endToEnd, true: perLayer}
	for _, sh := range shapes {
		for _, traced := range []bool{false, true} {
			sh, traced := tiny(sh), traced
			t.Run(sh.name+map[bool]string{false: "", true: "-traced"}[traced], func(t *testing.T) {
				dir := testDir(t)
				var res result
				var err error
				if traced {
					res, _, err = runTraced(sh, 3, 100*time.Millisecond, dir)
				} else {
					res, _, err = runServe(sh, 3, 100*time.Millisecond, dir)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d operations failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want[traced]) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want[traced]))
				}
				for _, name := range want[traced] {
					if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
						t.Errorf("metric %s = %+v, want a positive value", name, m)
					}
				}
			})
		}
	}
}

// tinyStore builds the archive of a tiny search workload through the
// library, as the served store would hold it.
func tinyStore(t *testing.T) (*inputs, shape, *store.Store) {
	t.Helper()
	sh := tiny(shapes[1])
	sh.prefill = 3
	in, err := generate(sh, 5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := prefill(serverConfig(sh, in, testDir(t)), in, sh.prefill)
	if err != nil {
		t.Fatal(err)
	}
	return in, sh, st
}

// TestChecksCatchPerturbedHit shows the search check fails on one
// perturbed hit, and passes on the store's own answer.
func TestChecksCatchPerturbedHit(t *testing.T) {
	in, sh, st := tinyStore(t)
	a, err := readArchive(st, expectedWindows(sh, sh.prefill-1))
	if err != nil {
		t.Fatal(err)
	}
	label := in.labels[0]
	hits, err := st.SearchLabel(core.Jaccard{}, label, store.SearchOptions{TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]server.SearchHitJSON, len(hits))
	for i, h := range hits {
		got[i] = server.SearchHitJSON{Label: h.Label, Window: h.Window, Dist: h.Dist}
	}
	want, err := bruteSearch(a, core.Jaccard{}, label, 0, topK)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareHits(want, got); err != nil {
		t.Fatalf("unperturbed answer rejected: %v", err)
	}
	if len(got) < 2 {
		t.Fatalf("only %d hits to perturb", len(got))
	}
	for _, perturb := range []func(h *server.SearchHitJSON){
		func(h *server.SearchHitJSON) { h.Dist += 1e-12 },
		func(h *server.SearchHitJSON) { h.Window-- },
		func(h *server.SearchHitJSON) { h.Label = label },
	} {
		bad := append([]server.SearchHitJSON(nil), got...)
		perturb(&bad[1])
		if compareHits(want, bad) == nil {
			t.Errorf("perturbed hit %+v passed the search check", bad[1])
		}
	}
}

// TestChecksCatchDroppedWindow shows the archive and restart checks
// fail when one window is missing.
func TestChecksCatchDroppedWindow(t *testing.T) {
	in, sh, st := tinyStore(t)
	windows := expectedWindows(sh, sh.prefill-1)
	a, err := readArchive(st, windows)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkArchive(sh, in, a, sh.prefill-1); err != nil {
		t.Fatalf("whole archive rejected: %v", err)
	}
	dropped := archive{u: a.u, sets: append(a.sets[:1:1], a.sets[2:]...)}
	if checkArchive(sh, in, dropped, sh.prefill-1) == nil {
		t.Error("archive with a dropped window passed the window check")
	}
	if compareDigests(digests(a), digests(dropped)) == nil {
		t.Error("archive with a dropped window passed the restart check")
	}
}
