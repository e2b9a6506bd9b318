// Command perfbench is the repository benchmark. It runs the retrieval
// middleware in proximity-server's default shape inside its own process,
// drives one workload from its own closed-loop clients, checks every answer
// against an exact search of its own, and prints the metrics as one JSON
// line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-text --seed 1 --seconds 30 --trace 0
//
// Workloads: zipf-http, zipf-lib and cold-text (see METRICS.md). With
// --trace 0 the last line holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced replay, and the spans are written
// under .bench_build/perfbench-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"
)

func main() {
	res, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed their checks\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// config is one run's settings.
type config struct {
	workload  workload
	seed      uint64
	seconds   float64
	trace     bool
	draws     int    // Zipf stream length
	setupReps int    // set-ups timed for setup_s
	out       string // directory for span files, relative to the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner holds one run's state.
type runner struct {
	config
	in     *inputs
	prog   *program
	oracle *oracle
	log    io.Writer

	mu       sync.Mutex
	failures []string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: zipf-http, zipf-lib or cold-text")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run and per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		draws: zipfDraws, setupReps: 5, out: filepath.Join(".bench_build", "perfbench-out")}, nil
}

func run(args []string, stdout, stderr io.Writer) (result, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return result{}, err
	}
	return runConfig(cfg, stdout, stderr)
}

func runConfig(cfg config, stdout, stderr io.Writer) (result, error) {
	// Every connection a phase opens stays in the keep-alive pool.
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.MaxIdleConnsPerHost = max(t.MaxIdleConnsPerHost, runtime.NumCPU())
	}
	r := &runner{config: cfg, log: stderr}

	t0 := time.Now()
	in, err := makeInputs(r.workload, r.seed, r.draws)
	if err != nil {
		return result{}, fmt.Errorf("inputs: %w", err)
	}
	r.in = in
	env := newEnvelope(cfg)
	env.InputsS = time.Since(t0).Seconds()
	fmt.Fprintf(stderr, "inputs: %d queries for %s, seed %d, generated in %.2fs\n",
		len(r.in.stream), r.workload.name, r.seed, env.InputsS)
	r.oracle = newOracle(r.in)
	baseHeap := liveHeap()

	reps := r.setupReps
	if r.trace {
		reps = 1
	}
	setups, err := r.setUp(reps)
	if err != nil {
		return result{}, err
	}
	env.SetupRuns = setups
	fmt.Fprintf(stderr, "set-up: %d runs, median %.3fs\n", len(setups), median(setups))

	var res result
	if r.trace {
		res, err = r.traced(env)
	} else {
		res, err = r.untraced(env, baseHeap)
	}
	if err != nil {
		return result{}, err
	}
	for _, f := range r.failures {
		fmt.Fprintln(stderr, "failure:", f)
	}
	line, err := json.Marshal(env)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "{\"envelope\":%s}\n", line)
	line, err = json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// setUp builds the program reps times, timing corpus generation and
// embedding, index build, cache, retriever and server construction and
// listener start. It keeps the last program.
func (r *runner) setUp(reps int) ([]float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		prog, err := setUp(r.workload, r.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		inst, err := prog.start(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if err := inst.stop(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.prog = prog
	}
	return secs, nil
}

// untraced measures the end-to-end metrics from two alternating phases:
// latency passes (whole single-connection replays) and capacity rounds
// (whole replays over nproc connections). Alternation lets both phases see
// the same host conditions. When the next phase's last duration no longer
// fits in the budget the other phase goes instead, and the run ends when
// neither fits.
func (r *runner) untraced(env *envelope, baseHeap uint64) (result, error) {
	budget := time.Duration(r.seconds * float64(time.Second))
	conns := runtime.NumCPU()

	sample := r.recallSample()
	var lat []time.Duration
	var rates []float64
	var latCount, capCount phaseCount
	var misses, recallSample []served
	var elapsed time.Duration
	var last [2]time.Duration // last latency pass, last capacity round
	var heapBytes uint64
	for next := 0; ; next = 1 - next {
		if latCount.Passes > 0 && capCount.Passes > 0 && len(lat) >= samplesFor(tailPercentile) {
			if elapsed+last[next] > budget {
				next = 1 - next
			}
			if elapsed+last[next] > budget {
				break
			}
		}
		if next == 0 {
			inSample := sample
			if latCount.Passes > 0 {
				inSample = nil
			}
			p, err := r.pass(nil, inSample)
			if err != nil {
				return result{}, err
			}
			latCount.Passes++
			lat = append(lat, p.lat...)
			latCount.Sent += p.sent
			latCount.Failed += p.failed
			misses = append(misses, p.misses...)
			recallSample = append(recallSample, p.sample...)
			heapBytes = p.heapBytes
			last[0] = p.elapsed
			fmt.Fprintf(r.log, "latency pass %d: %.2fs, %d misses\n", latCount.Passes, p.elapsed.Seconds(), len(p.misses))
		} else {
			rd, err := r.round(conns)
			if err != nil {
				return result{}, err
			}
			capCount.Passes++
			capCount.Sent += rd.sent
			capCount.Failed += rd.failed + r.checkMisses(rd.misses)
			rates = append(rates, float64(rd.sent-rd.failed)/rd.elapsed.Seconds())
			last[1] = rd.elapsed
			fmt.Fprintf(r.log, "capacity round %d: %.2fs, %.0f/s\n", capCount.Passes, rd.elapsed.Seconds(), rates[len(rates)-1])
		}
		elapsed += last[next]
	}
	missCount := len(misses)
	latCount.Failed += r.checkMisses(misses)
	r.oracle.prepare(indices(recallSample))
	recall := r.oracle.recall(recallSample)
	latCount.Succeeded = latCount.Sent - latCount.Failed
	capCount.Succeeded = capCount.Sent - capCount.Failed

	slices.Sort(lat)
	p50, err := percentile(lat, 50)
	if err != nil {
		return result{}, err
	}
	p95, err := percentile(lat, tailPercentile)
	if err != nil {
		return result{}, err
	}
	env.Phases = map[string]phaseCount{"latency": latCount, "capacity": capCount}
	env.LatencySamples = len(lat)
	env.CapacityConns = conns
	env.RecallSample = len(recallSample)

	attempted := latCount.Sent + capCount.Sent
	failed := latCount.Failed + capCount.Failed
	heap := float64(0)
	if heapBytes > baseHeap {
		heap = float64(heapBytes-baseHeap) / (1 << 20)
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":            {median(env.SetupRuns), "s"},
			"p50_ms":             {ms(p50), "ms"},
			"p95_ms":             {ms(p95), "ms"},
			"capacity_qps":       {median(rates), "1/s"},
			"db_calls_per_query": {float64(missCount) / float64(latCount.Sent), "ratio"},
			"recall_at_k":        {recall, "ratio"},
			"success_rate":       {float64(attempted-failed) / float64(attempted), "ratio"},
			"heap_mb":            {heap, "MiB"},
		},
	}, nil
}

// traced replays the stream three times: a warm-up, then once untraced and
// once traced. trace.overhead_pct compares the medians of the last two: on
// the Zipf streams the mean is mostly miss scans, whose speed drifts with
// the host by more than tracing costs. The warm-up keeps the first pass's
// heap growth out of that comparison. The per-layer metrics come from
// the traced replay's spans, the runtime ones from the untraced replay.
func (r *runner) traced(env *envelope) (result, error) {
	var passes [3]passResult
	tr := newTracer()
	for i := range passes {
		var pt *tracer
		if i == 2 {
			pt = tr
		}
		p, err := r.pass(pt, nil)
		if err != nil {
			return result{}, err
		}
		passes[i] = p
	}
	plain, traced := passes[1], passes[2]
	count := phaseCount{Passes: len(passes)}
	for _, p := range passes {
		count.Sent += p.sent
		count.Failed += p.failed + r.checkMisses(p.misses)
	}
	count.Succeeded = count.Sent - count.Failed
	env.Phases = map[string]phaseCount{"traced": count}

	spans := tr.snapshot()
	totals := layerTotals(spans)
	writeLayerTable(r.log, r.workload.name, totals, traced.sent)
	if err := r.writeSpans(env, spans); err != nil {
		return result{}, err
	}

	n := float64(traced.sent)
	perReq := func(name string) float64 { return micros(totals[name].total) / n }
	selfPerReq := func(name string) float64 { return micros(totals[name].self) / n }
	callsPerReq := func(name string) float64 { return float64(totals[name].calls) / n }
	transport := 0.0
	if r.workload.http {
		transport = perReq(spanClient) - perReq(spanHandler)
	}
	cs := traced.cache
	rt := plain.runtime
	m := map[string]metric{
		"server.transport_us":                {transport, "us"},
		"server.handler_us":                  {perReq(spanHandler), "us"},
		"server.self_us":                     {selfPerReq(spanHandler), "us"},
		"core.get_us":                        {perReq(spanGet), "us"},
		"core.get_calls_per_query":           {callsPerReq(spanGet), "count"},
		"core.hit_ratio":                     {ratio(cs.Hits, cs.Lookups()), "ratio"},
		"core.retrieve_self_us":              {selfPerReq(spanRetrieve), "us"},
		"core.put_us":                        {perReq(spanPut), "us"},
		"core.puts_per_query":                {callsPerReq(spanPut), "count"},
		"core.evictions_per_put":             {ratio(cs.Evictions, cs.Puts), "ratio"},
		"core.entries":                       {float64(traced.entries), "count"},
		"vectordb.search_us":                 {perReq(spanSearch), "us"},
		"vectordb.search_calls_per_query":    {callsPerReq(spanSearch), "count"},
		"vectordb.vectors_scanned_per_query": {callsPerReq(spanSearch) * float64(r.prog.db.Len()), "count"},
		"vectordb.source_us":                 {perReq(spanSource), "us"},
		"vectordb.source_calls_per_query":    {callsPerReq(spanSource), "count"},
		"embed.embed_us":                     {perReq(spanEmbed), "us"},
		"embed.calls_per_query":              {callsPerReq(spanEmbed), "count"},
		"docstore.text_us":                   {perReq(spanText), "us"},
		"runtime.alloc_kb_per_query":         {float64(rt.allocBytes) / 1024 / float64(plain.sent), "KiB"},
		"runtime.gc_cycles":                  {float64(rt.gcCycles), "count"},
		"runtime.gc_cpu_fraction":            {rt.gcCPU / (plain.elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))), "ratio"},
		"trace.overhead_pct":                 {100 * (p50(traced.lat)/p50(plain.lat) - 1), "%"},
	}
	return result{Correct: count.Failed == 0, Attempted: count.Sent, Failed: count.Failed, Metrics: m}, nil
}

// recallSample picks, from the seed, the stream positions whose answers
// are scored for recall.
func (r *runner) recallSample() func(i int) bool {
	const size = 400
	n := len(r.in.stream)
	pick := make(map[int]bool, size)
	for _, i := range rand.New(rand.NewPCG(r.seed, 104)).Perm(n)[:min(size, n)] {
		pick[i] = true
	}
	return func(i int) bool { return pick[i] }
}

func (r *runner) writeSpans(env *envelope, spans []span) error {
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.out, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, map[string]any{"envelope": env}, spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.log, "spans: %d written to %s\n", len(spans), path)
	return nil
}

// envelope describes the run: code, host, settings and request counts.
type envelope struct {
	Commit         string                `json:"commit"`
	GoVersion      string                `json:"go"`
	CPU            string                `json:"cpu"`
	NProc          int                   `json:"nproc"`
	GOMAXPROCS     int                   `json:"gomaxprocs"`
	Workload       string                `json:"workload"`
	Seed           uint64                `json:"seed"`
	Seconds        float64               `json:"seconds"`
	Trace          bool                  `json:"trace"`
	InputsS        float64               `json:"inputs_s"`
	SetupRuns      []float64             `json:"setup_runs_s"`
	Phases         map[string]phaseCount `json:"phases"`
	LatencySamples int                   `json:"latency_samples,omitempty"`
	CapacityConns  int                   `json:"capacity_conns,omitempty"`
	RecallSample   int                   `json:"recall_sample,omitempty"`
}

func newEnvelope(cfg config) *envelope {
	return &envelope{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workload:   cfg.workload.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
}

// commit is the VCS revision the binary was built from, or "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p50 is the median of unsorted latencies, in milliseconds.
func p50(lat []time.Duration) float64 {
	v, err := percentile(slices.Sorted(slices.Values(lat)), 50)
	if err != nil {
		return math.NaN()
	}
	return ms(v)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
