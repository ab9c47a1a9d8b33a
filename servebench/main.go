// Command servebench is the serving benchmark of sigserverd: it boots
// the real server in process, feeds it the datagen enterprise model
// over HTTP, queries it, restarts it, checks every answer apart from
// the serving path, and prints the metrics as one JSON line.
//
//	go run ./servebench --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it drives the same workload through the server's
// library calls and then through each layer's public functions, records
// a span around every call, and reports the per-layer metrics. See
// servebench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: ingest, search or tiered")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "seconds one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced, layer-by-layer run")
	flag.Parse()

	out, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"diagnostics": out.diag}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out.res); err != nil {
		os.Exit(1)
	}
}

type output struct {
	res  result
	diag map[string]any
}

// run executes one workload in a fresh state directory under the
// checkout and removes the directory afterwards.
func run(workload string, seed int64, seconds time.Duration, traced bool) (output, error) {
	sh, ok := shapeByName(workload)
	if !ok {
		return output{}, fmt.Errorf("unknown workload %q (want ingest, search or tiered)", workload)
	}
	if seconds <= 0 {
		return output{}, fmt.Errorf("--seconds must be positive")
	}
	dir, err := runDir(sh.name, seed)
	if err != nil {
		return output{}, err
	}
	defer os.RemoveAll(dir)
	var o output
	if traced {
		o.res, o.diag, err = runTraced(sh, seed, seconds, dir)
	} else {
		o.res, o.diag, err = runServe(sh, seed, seconds, dir)
	}
	if err != nil {
		return output{}, fmt.Errorf("%s: %w", sh.name, err)
	}
	o.diag["workload"], o.diag["seed"], o.diag["trace"] = sh.name, seed, traced
	return o, nil
}
