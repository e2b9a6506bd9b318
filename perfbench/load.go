package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"proximity/internal/core"
)

// phaseCount tallies the requests of one phase.
type phaseCount struct {
	Sent      int `json:"sent"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	Passes    int `json:"passes"`
}

// passResult is one replay of the stream over one connection.
type passResult struct {
	lat       []time.Duration // client-observed latency of every request
	sent      int
	failed    int           // errors and malformed answers
	misses    []served      // miss answers, checked against the oracle later
	sample    []served      // answers of the recall sample
	elapsed   time.Duration // wall time of the request loop
	heapBytes uint64        // live heap after a forced GC at the end
	runtime   runtimeDelta  // runtime counters over the request loop
	cache     core.Stats    // cache counters at the end
	entries   int           // cache entries at the end
}

// pass replays the whole stream once, from an empty cache, over one
// closed-loop connection. inSample marks the answers kept for recall.
func (r *runner) pass(tr *tracer, inSample func(i int) bool) (passResult, error) {
	inst, err := r.prog.start(tr)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{lat: make([]time.Duration, 0, len(r.in.stream))}
	root := spanClient
	if !r.workload.http {
		root = spanRetrieve
	}
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	for i, q := range r.in.stream {
		var id int
		if tr != nil {
			id = tr.request(root)
		}
		t0 := time.Now()
		a, err := inst.call(q)
		d := time.Since(t0)
		if tr != nil {
			tr.end(id)
		}
		res.lat = append(res.lat, d)
		res.sent++
		if !r.accept(a, err) {
			res.failed++
			continue
		}
		if !a.hit {
			res.misses = append(res.misses, served{i, a.docs})
		}
		if inSample != nil && inSample(i) {
			res.sample = append(res.sample, served{i, a.docs})
		}
	}
	res.elapsed = time.Since(start)
	res.runtime = readRuntime().since(before)
	res.cache, res.entries = inst.cache.Stats(), inst.cache.Len()
	res.heapBytes = liveHeap()
	return res, inst.stop()
}

// roundResult is one replay of the stream over nproc connections.
type roundResult struct {
	sent, failed int
	misses       []served
	elapsed      time.Duration
}

// round replays the whole stream once, from an empty cache, over conns
// closed-loop connections that take the next query in stream order.
func (r *runner) round(conns int) (roundResult, error) {
	inst, err := r.prog.start(nil)
	if err != nil {
		return roundResult{}, err
	}
	var next atomic.Int64
	per := make([]roundResult, conns)
	runtime.GC()
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(out *roundResult) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.in.stream) {
					return
				}
				a, err := inst.call(r.in.stream[i])
				out.sent++
				if !r.accept(a, err) {
					out.failed++
					continue
				}
				if !a.hit {
					out.misses = append(out.misses, served{i, a.docs})
				}
			}
		}(&per[c])
	}
	wg.Wait()
	res := roundResult{elapsed: time.Since(start)}
	for _, p := range per {
		res.sent += p.sent
		res.failed += p.failed
		res.misses = append(res.misses, p.misses...)
	}
	return res, inst.stop()
}

// accept reports whether a request succeeded with a well-formed answer,
// noting the first few failures.
func (r *runner) accept(a answer, err error) bool {
	if err == nil {
		err = r.oracle.checkShape(a, r.workload.http)
	}
	if err != nil {
		r.noteFailure(err)
		return false
	}
	return true
}

// noteFailure keeps the first few failure messages for the log.
func (r *runner) noteFailure(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err.Error())
	}
}

// checkMisses verifies every miss against the exact top-K and returns how
// many failed.
func (r *runner) checkMisses(misses []served) int {
	r.oracle.prepare(indices(misses))
	failed := 0
	for _, m := range misses {
		if err := r.oracle.checkExact(m.idx, m.docs); err != nil {
			r.noteFailure(fmt.Errorf("query %d: %w", m.idx, err))
			failed++
		}
	}
	return failed
}

// runtimeDelta is the change in the runtime's counters over an interval.
type runtimeDelta struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // CPU seconds spent in GC, as of the last completed cycle
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
	}
}

func (d runtimeDelta) since(before runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: d.allocBytes - before.allocBytes,
		gcCycles:   d.gcCycles - before.gcCycles,
		gcCPU:      d.gcCPU - before.gcCPU,
	}
}
