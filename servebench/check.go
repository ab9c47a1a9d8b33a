package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/server"
	"graphsig/internal/store"
)

// The checks below are made apart from the serving path: they read
// windows back through Store.Window and recompute every answer from the
// generated records or with the naive core.Distance.Dist.

// archive is every retained window of a store, oldest first, with the
// universe that names its nodes.
type archive struct {
	u    *graph.Universe
	sets []*core.SignatureSet
}

// expectedWindows lists the windows a store must retain once window
// last has closed: the hot ring alone, or everything with a cold tier.
func expectedWindows(sh shape, last int) []int {
	first := 0
	if !sh.segments {
		first = max(0, last-sh.capacity+1)
	}
	var ws []int
	for w := first; w <= last; w++ {
		ws = append(ws, w)
	}
	return ws
}

// readArchive reads windows back through Store.Window, hot and cold.
func readArchive(st *store.Store, windows []int) (archive, error) {
	a := archive{u: st.Universe()}
	for _, w := range windows {
		set, err := st.Window(w)
		if err != nil {
			return a, fmt.Errorf("window %d: %w", w, err)
		}
		if set != nil {
			a.sets = append(a.sets, set)
		}
	}
	return a, nil
}

// checkWindows fails unless the archive holds exactly the expected
// windows.
func checkWindows(a archive, want []int) error {
	got := make([]int, len(a.sets))
	for i, s := range a.sets {
		got[i] = s.Window
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("retained windows %v, want %v", got, want)
	}
	return nil
}

// checkSignatures compares every retained window with the records that
// made it: the sources are exactly the local labels that sent TCP
// records, each signature has at most k nodes, every node was a
// destination of that source, and every weight is at least the true
// share of sessions (Count-Min never underestimates).
func checkSignatures(a archive, in *inputs, k int) error {
	for _, set := range a.sets {
		t := in.truthOf(set.Window)
		if len(set.Sources) != len(t.sessions) {
			return fmt.Errorf("window %d: %d sources, records have %d", set.Window, len(set.Sources), len(t.sessions))
		}
		for i, v := range set.Sources {
			src := a.u.Label(v)
			dsts, ok := t.sessions[src]
			if !ok {
				return fmt.Errorf("window %d: source %s sent no records", set.Window, src)
			}
			sig := set.Sigs[i]
			if sig.Len() > k || sig.Len() == 0 {
				return fmt.Errorf("window %d: %s has %d nodes, want 1..%d", set.Window, src, sig.Len(), k)
			}
			for j, u := range sig.Nodes {
				dst := a.u.Label(u)
				n, ok := dsts[dst]
				if !ok {
					return fmt.Errorf("window %d: %s -> %s never communicated", set.Window, src, dst)
				}
				if share := n / t.total[src]; sig.Weights[j] < share {
					return fmt.Errorf("window %d: %s -> %s weight %v below true share %v", set.Window, src, dst, sig.Weights[j], share)
				}
			}
		}
	}
	return nil
}

// bruteSearch answers a label search by scanning every window with the
// naive distance: the query is the label's newest non-empty signature,
// the label's own signatures are excluded, and hits rank by distance,
// then newer window first, then label.
func bruteSearch(a archive, d core.Distance, label string, maxDist float64, k int) ([]server.SearchHitJSON, error) {
	if maxDist <= 0 {
		maxDist = 1
	}
	v, ok := a.u.Lookup(label)
	if !ok {
		return nil, fmt.Errorf("label %s unknown", label)
	}
	var q core.Signature
	for i := len(a.sets) - 1; i >= 0 && q.IsEmpty(); i-- {
		q, _ = a.sets[i].Get(v)
	}
	if q.IsEmpty() {
		return nil, fmt.Errorf("label %s has no archived signature", label)
	}
	var hits []server.SearchHitJSON
	for _, set := range a.sets {
		for i, u := range set.Sources {
			if u == v || set.Sigs[i].IsEmpty() {
				continue
			}
			if dist := d.Dist(q, set.Sigs[i]); dist <= maxDist {
				hits = append(hits, server.SearchHitJSON{Label: a.u.Label(u), Window: set.Window, Dist: dist})
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Dist != hits[j].Dist {
			return hits[i].Dist < hits[j].Dist
		}
		if hits[i].Window != hits[j].Window {
			return hits[i].Window > hits[j].Window
		}
		return hits[i].Label < hits[j].Label
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits, nil
}

// compareHits fails unless got equals want hit for hit.
func compareHits(want, got []server.SearchHitJSON) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("hit %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// bruteHistory lists label's archived signatures, oldest window first.
func bruteHistory(a archive, label string) []server.HistoryEntryJSON {
	v, ok := a.u.Lookup(label)
	if !ok {
		return nil
	}
	var out []server.HistoryEntryJSON
	for _, set := range a.sets {
		if sig, ok := set.Get(v); ok {
			nodes := make([]string, sig.Len())
			for i, n := range sig.Nodes {
				nodes[i] = a.u.Label(n)
			}
			out = append(out, server.HistoryEntryJSON{Window: set.Window, Scheme: set.Scheme,
				Signature: server.SignatureJSON{Nodes: nodes, Weights: sig.Weights}})
		}
	}
	return out
}

func compareHistory(want, got []server.HistoryEntryJSON) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d history entries, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Window != g.Window || w.Scheme != g.Scheme ||
			fmt.Sprint(w.Signature) != fmt.Sprint(g.Signature) {
			return fmt.Errorf("history entry %d is %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// digests fingerprints every window by label, so archives built in
// different universes (the served one and the layered replay's)
// compare window for window.
func digests(a archive) map[int]string {
	out := make(map[int]string, len(a.sets))
	for _, set := range a.sets {
		lines := make([]string, len(set.Sources))
		for i, v := range set.Sources {
			var b strings.Builder
			b.WriteString(a.u.Label(v))
			for j, n := range set.Sigs[i].Nodes {
				b.WriteString(" " + a.u.Label(n) + "=" + strconv.FormatUint(math.Float64bits(set.Sigs[i].Weights[j]), 16))
			}
			lines[i] = b.String()
		}
		sort.Strings(lines)
		h := sha256.Sum256([]byte(set.Scheme + "\n" + strings.Join(lines, "\n")))
		out[set.Window] = hex.EncodeToString(h[:])
	}
	return out
}

// compareDigests fails unless two archives hold the same windows with
// the same content.
func compareDigests(want, got map[int]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d windows, want %d", len(got), len(want))
	}
	for w, d := range want {
		if got[w] != d {
			return fmt.Errorf("window %d differs", w)
		}
	}
	return nil
}

// checkAccounting compares what the client sent with what the server
// reports: every record is accepted, dropped or rejected, and the
// windows closed match the record timestamps.
func checkAccounting(sent int, res server.IngestResult, counters map[string]int64, wantClosed int) error {
	if res.Received != sent || res.Accepted+res.Dropped+res.Rejected != sent {
		return fmt.Errorf("sent %d records, server received %d: accepted %d + dropped %d + rejected %d",
			sent, res.Received, res.Accepted, res.Dropped, res.Rejected)
	}
	if got := counters["flows_received"]; got != int64(sent) {
		return fmt.Errorf("flows_received %d, sent %d", got, sent)
	}
	if a, d, r := counters["flows_accepted"], counters["flows_dropped"], counters["flows_rejected"]; a+d+r != int64(sent) {
		return fmt.Errorf("flow counters %d+%d+%d, sent %d", a, d, r, sent)
	}
	if res.WindowsClosed != wantClosed {
		return fmt.Errorf("%d windows closed, record timestamps give %d", res.WindowsClosed, wantClosed)
	}
	return nil
}
