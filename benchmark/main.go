// Command benchmark is the repository's end-to-end benchmark: it trains real
// core workers over transport.NewTCPCluster on six named workloads and
// reports time to a target loss, throughput, peak memory and set-up time,
// and in a separate traced pass measures each layer from outside.
//
//	go run ./benchmark                      every workload, end-to-end pass
//	go run ./benchmark -traced              every workload, per-layer pass
//	go run ./benchmark -seeds 10 -out a.json
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload dense_bsp --seed 3 --seconds 15 --trace 0
//
// The last form is the driver's contract: one run of one workload, whose
// last output line is {"correct", "attempted", "failed", "metrics"}. See
// README.md for what every number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/collective"
)

// hostInfo is recorded with every result: numbers from different hosts,
// Go versions or commits are not comparable.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	ChildProcs int    `json:"child_gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{Go: runtime.Version(), Commit: "unknown", ChildProcs: childProcs}
	h.GOMAXPROCS, h.NumCPU = collective.HostFingerprint()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.Commit = kv.Value
			}
		}
	}
	return h
}

// outFile is what -out writes and -compare reads: every run made.
type outFile struct {
	Host hostInfo     `json:"host"`
	Runs []*runResult `json:"runs"`
}

// contractLine is the last line of a single-workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's JSON line")
		seed     = flag.Int64("seed", 1, "derives dataset, model init, batch streams, delay streams and controller seed")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures; sizes the repetition count")
		trace    = flag.Int("trace", 0, "1 runs the per-layer traced pass instead of the end-to-end pass")
		traced   = flag.Bool("traced", false, "same as -trace 1")
		seeds    = flag.Int("seeds", 1, "runs per workload, on seeds seed..seed+seeds-1")
		out      = flag.String("out", "", "write every run to this JSON file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json from the tables in this package and exit")
		isChild  = flag.Bool("child", false, "internal: run one repetition (or -probe) in this process")
		rep      = flag.Int("rep", 0, "internal: repetition index of a -child")
		probe    = flag.Bool("probe", false, "internal: a -child that runs the stand-alone probes")
	)
	flag.Parse()
	*traced = *traced || *trace == 1

	switch {
	case *manifest:
		if err := printManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	case *isChild:
		s, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		if err := runChild(s, *seed, *rep, *traced, *probe, start); err != nil {
			fatal(err)
		}
		return
	}

	specs := workloads
	if *workload != "" {
		s, err := findWorkload(*workload)
		if err != nil {
			fatal(err)
		}
		specs = []*spec{s}
	}
	file, ok := runAll(os.Stdout, selfLauncher, specs, options{
		seed: *seed, seeds: *seeds, seconds: *seconds, traced: *traced,
		stressFails: *workload == "",
	})
	if *out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *workload != "" {
		last := file.Runs[len(file.Runs)-1]
		line := contractLine{Correct: last.Failed == 0, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]contractValue{}}
		if *traced {
			for _, m := range perLayer {
				line.Metrics[m.name] = contractValue{last.Layers[m.name], m.unit}
			}
		} else {
			for _, m := range endToEnd {
				line.Metrics[m.name] = contractValue{last.EndToEnd[m.name].Value, m.unit}
			}
		}
		b, err := json.Marshal(&line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	}
	if !ok {
		os.Exit(1)
	}
}

// runSeconds is how long one run measures: BENCHMARK.json's run_seconds
// and the default of -seconds.
const runSeconds = 20

// printManifest writes BENCHMARK.json, so the file at the repository root is
// generated from the tables here and cannot drift from them.
func printManifest(w io.Writer) error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var m struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []named     `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}
	// run.sh is `go build` + exec with the toolchain's caches kept inside
	// the checkout; `go run ./benchmark` takes the same arguments.
	m.Command = []string{"bash", "benchmark/run.sh"}
	m.Paths = []string{"benchmark"}
	m.RunSeconds = runSeconds
	for _, s := range workloads {
		m.Workloads = append(m.Workloads, named{s.name, s.why})
	}
	for _, e := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{e.name, e.unit, e.better, e.bound})
	}
	for _, l := range perLayer {
		m.PerLayer = append(m.PerLayer, unbounded{l.name, l.unit, l.better})
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(&m)
}

type options struct {
	seed    int64
	seeds   int
	seconds float64
	traced  bool
	// stressFails makes an unmet stress check fail the command. The checks
	// judge the benchmark's definition, so they fail the all-workloads
	// traced command and never a contract run of one workload.
	stressFails bool
}

// runAll runs every given workload on every seed, prints each run as it
// completes, and reports whether all of them passed. A failed workload
// does not stop the others.
func runAll(w io.Writer, launch launcher, specs []*spec, o options) (outFile, bool) {
	h := host()
	fmt.Fprintf(w, "host: GOMAXPROCS=%d NumCPU=%d %s commit %s; %d ranks as goroutines over loopback TCP, each repetition a child at GOMAXPROCS=%d\n",
		h.GOMAXPROCS, h.NumCPU, h.Go, h.Commit, ranks, h.ChildProcs)
	file := outFile{Host: h}
	ok := true
	for _, s := range specs {
		for i := 0; i < o.seeds; i++ {
			var r *runResult
			if o.traced {
				r = runTraced(launch, s, o.seed+int64(i))
			} else {
				r = runUntraced(launch, s, o.seed+int64(i), o.seconds)
			}
			report(w, r)
			file.Runs = append(file.Runs, r)
			ok = ok && r.Failed == 0
			for _, c := range r.Stress {
				ok = ok && (c.Met || !o.stressFails)
			}
		}
	}
	return file, ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// probeResult is the line a -probe child prints.
type probeResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Counts  map[string]int     `json:"counts"`
}

// childProcs is the GOMAXPROCS of every child process, whatever the host
// offers. The reference host's two vCPUs deliver between one and two cores'
// worth of work from one second to the next: a spin loop on one thread stays
// within a few per cent (p10 6.8, p90 7.2 ms), the same loop on two threads
// takes anything from 1.0x to 2.6x as long. One thread's worth of work is
// the only amount the host hands out steadily, so that is what a repetition
// asks for: over six seeds dense_bsp time_to_target_s spread 3.5 % at 1 against
// 20.9 % at 2. The price is that the benchmark sees CPU work, copies, syscalls
// and waiting, and does not see parallel speed-up; on this host it never
// could (README.md, "The reference host").
const childProcs = 1

// runChild is one fresh-process operation: a repetition, traced or not, or
// the probes. It prints one JSON line for the parent.
func runChild(s *spec, seed int64, rep int, traced, probe bool, start time.Time) error {
	runtime.GOMAXPROCS(childProcs)
	var line any
	if probe {
		m, n, err := runProbes(s, seed, 1)
		if err != nil {
			return err
		}
		line = &probeResult{Metrics: m, Counts: n}
	} else {
		res, d := runRep(s, seed, rep, traced, start)
		if traced && res.Failed == "" {
			var err error
			if res.InSitu, err = layerStats(d); err == nil && s.psRank >= 0 {
				err = checkPartition(d)
			}
			if err != nil {
				res.Failed = err.Error()
			} else if _, err := writeTrace(traceDir, d, seed, res.InSitu.Metrics); err != nil {
				return err
			}
		}
		line = res
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
