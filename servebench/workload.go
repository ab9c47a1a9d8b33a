package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/datagen"
	"graphsig/internal/netflow"
	"graphsig/internal/server"
	"graphsig/internal/sketch"
	"graphsig/internal/stream"
)

// shape is one workload: the generated traffic, the server settings
// that differ from sigserverd's defaults, and how many windows each
// phase feeds. Every workload runs the same phases (ingest, queries,
// restart); the shapes decide which layer does most of the work.
type shape struct {
	name string
	// hosts is the number of local labels of the datagen enterprise
	// model; the other generator settings keep their defaults.
	hosts int
	// pool distinct windows are generated; the horizon cycles through
	// them, shifted in time, so a long horizon costs pool windows of
	// generation instead of one per window.
	pool int
	// capacity is the store ring size; segments enables the cold tier.
	capacity int
	segments bool
	// prefill windows are archived into the snapshot before the server
	// boots, so the timed closes already run against a full ring without
	// a long ingest over HTTP first. warmup windows are then fed over
	// HTTP before timing starts, and ingest windows are fed while timed.
	// The last fed window stays open until shutdown.
	prefill, warmup, ingest int
	// interleave issues one read (an unbounded search or a full-history
	// lookup, alternating) after every writer batch of the timed ingest
	// phase.
	interleave bool
	// The timed part runs cycles of an ingest phase (ingest/cycles
	// windows), a query phase and a restart. queryRate sets the query rounds per
	// second of --seconds; it is fixed work, not a deadline, so that two
	// runs of one length measure the same operations.
	cycles    int
	queryRate float64
	// batch is the number of records per POST.
	batch int
}

// replayBatch is the batch size of sigserverd's -replay. batchQueries
// is the number of label queries in one POST /v1/search/batch, and
// sdiceMaxDist the threshold of the thresholded SDice label search.
const (
	replayBatch   = 2000
	batchQueries  = 16
	sdiceMaxDist  = 0.8
	topK          = 10
	sigLength     = 10
	restartBoots  = 9
	setupRuns     = 3
	bootsPerCycle = 2
	checkQueries  = 8
	layerQueries  = 24
	defaultSeed   = 1
)

var shapes = []shape{
	{
		name: "ingest", hosts: 2000, pool: 4,
		capacity: 16, prefill: 15, warmup: 1, ingest: 16,
		cycles: 4, queryRate: 1.2, batch: replayBatch,
	},
	{
		name: "search", hosts: 1000, pool: 4,
		capacity: 6, prefill: 6, warmup: 1, ingest: 36,
		cycles: 6, queryRate: 7, batch: replayBatch,
	},
	{
		name: "tiered", hosts: 150, pool: 4,
		capacity: 2, segments: true, warmup: 1, ingest: 30, interleave: true,
		cycles: 5, queryRate: 2.5, batch: replayBatch,
	},
}

func shapeByName(name string) (shape, bool) {
	for _, sh := range shapes {
		if sh.name == name {
			return sh, true
		}
	}
	return shape{}, false
}

// queryRounds is the number of query rounds in each cycle's query phase.
func (sh shape) queryRounds(seconds time.Duration) int {
	return max(1, int(math.Round(sh.queryRate*seconds.Seconds()/float64(sh.cycles))))
}

// windows is the horizon: every window the run archives or feeds.
func (sh shape) windows() int { return sh.prefill + sh.warmup + sh.ingest }

// inputs are the generated records of one run. Window w of the horizon
// is pool window w%len(pool) shifted forward by whole windows.
type inputs struct {
	gen   datagen.EnterpriseConfig
	pool  [][]netflow.Record
	truth []windowTruth
	// labels are the local labels that send in every pool window, in
	// label order: each has an archived signature in every window, so a
	// label query on them never fails for want of history.
	labels []string
	// sources counts the distinct local labels that send at all.
	sources int
}

// windowTruth is the exact content of one pool window: per source,
// sessions per destination and in total.
type windowTruth struct {
	sessions map[string]map[string]float64
	total    map[string]float64
}

func generate(sh shape, seed int64) (*inputs, error) {
	gen := datagen.DefaultEnterpriseConfig(seed)
	gen.LocalHosts = sh.hosts
	gen.ExternalHosts = max(8*sh.hosts, 200)
	gen.Windows = sh.pool
	gen.MultiusageIndividuals = min(gen.MultiusageIndividuals, sh.hosts/15)
	data, err := datagen.GenerateEnterprise(gen)
	if err != nil {
		return nil, err
	}
	in := &inputs{gen: gen, pool: make([][]netflow.Record, sh.pool), truth: make([]windowTruth, sh.pool)}
	for _, r := range data.Records {
		w := int(r.Start.Sub(gen.Origin) / gen.WindowLength)
		in.pool[w] = append(in.pool[w], r)
	}
	seen := map[string]int{}
	for p, recs := range in.pool {
		if len(recs) == 0 {
			return nil, fmt.Errorf("pool window %d has no records", p)
		}
		t := windowTruth{sessions: map[string]map[string]float64{}, total: map[string]float64{}}
		for _, r := range recs {
			if r.Proto != netflow.TCP {
				continue
			}
			m := t.sessions[r.Src]
			if m == nil {
				m = map[string]float64{}
				t.sessions[r.Src] = m
				seen[r.Src]++
			}
			m[r.Dst] += float64(r.Sessions)
			t.total[r.Src] += float64(r.Sessions)
		}
		in.truth[p] = t
	}
	for l, n := range seen {
		if n == sh.pool {
			in.labels = append(in.labels, l)
		}
	}
	sort.Strings(in.labels)
	in.sources = len(seen)
	if len(in.labels) == 0 {
		return nil, fmt.Errorf("no label sends in every pool window")
	}
	return in, nil
}

// window returns the records of horizon window w.
func (in *inputs) window(w int) []netflow.Record {
	src := in.pool[w%len(in.pool)]
	shift := time.Duration(w-w%len(in.pool)) * in.gen.WindowLength
	out := make([]netflow.Record, len(src))
	for i, r := range src {
		r.Start = r.Start.Add(shift)
		out[i] = r
	}
	return out
}

// truthOf returns the exact content of horizon window w.
func (in *inputs) truthOf(w int) windowTruth { return in.truth[w%len(in.truth)] }

// batches splits horizon window w into POST-sized batches.
func (sh shape) batches(in *inputs, w int) [][]netflow.Record {
	recs := in.window(w)
	var out [][]netflow.Record
	for i := 0; i < len(recs); i += sh.batch {
		out = append(out, recs[i:min(i+sh.batch, len(recs))])
	}
	return out
}

// serverConfig is sigserverd's default configuration (the flag
// defaults) with the workload's ring size, durable state under dir, and
// the window alignment of the generator, as sigserverd -replay pins it.
// dir must exist: the server does not create the snapshot's parent.
func serverConfig(sh shape, in *inputs, dir string) server.Config {
	cfg := server.Config{
		Stream: stream.Config{
			WindowSize: in.gen.WindowLength,
			Origin:     in.gen.Origin,
			Classify:   netflow.PrefixClassifier("10."),
			TCPOnly:    true,
			K:          sigLength,
			Scheme:     "tt",
			Sketch:     sketch.StreamConfig{Width: 4096, Depth: 5, Candidates: 256, Seed: 1},
		},
		StoreCapacity: sh.capacity,
		Distance:      core.Jaccard{},
		WatchMaxDist:  server.Float64(0.5),
		SnapshotDir:   dir + "/snapshot",
		MaxInFlight:   8,
		SlowOp:        500 * time.Millisecond,
		Node:          &server.Identity{Role: "single"},
	}
	if sh.segments {
		cfg.SegmentDir = dir + "/segments"
	}
	return cfg
}

// query is one read operation of the query phase.
type query struct {
	kind   string // "search", "sdice", "batch" or "history"
	labels []string
}

// queryRound is one whole round of the query phase: every kind of read
// in a fixed order, on labels drawn from the seeded generator.
func queryRound(rng *rand.Rand, labels []string) []query {
	pick := func() []string { return []string{labels[rng.Intn(len(labels))]} }
	var round []query
	for i := 0; i < 4; i++ {
		round = append(round, query{"search", pick()}, query{"sdice", pick()}, query{"history", pick()})
	}
	b := query{kind: "batch"}
	for i := 0; i < batchQueries; i++ {
		b.labels = append(b.labels, pick()[0])
	}
	return append(round, b)
}
