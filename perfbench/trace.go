package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"proximity/internal/core"
	"proximity/internal/embed"
	"proximity/internal/server"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// Span names: one per layer boundary the benchmark wraps.
const (
	spanClient   = "client.request"  // around server.Client calls (root)
	spanRetrieve = "core.retrieve"   // around CachedRetriever.Retrieve (root, library path)
	spanHandler  = "server.handler"  // the server's http.Handler
	spanGet      = "core.get"        // Cache.Get
	spanPut      = "core.put"        // Cache.Put
	spanSearch   = "vectordb.search" // DB.Search
	spanSource   = "vectordb.source" // VectorSource.Vector
	spanEmbed    = "embed.embed"     // Embedder.Embed
	spanText     = "docstore.text"   // server.Documents.Text
)

// span is one timed call at a layer boundary. Times are offsets from the
// tracer's epoch; parent indexes the enclosing span, -1 at a request root.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. It serves the single-connection latency
// phase, where one request is in flight at a time, so the innermost open
// span is the parent of the next one, whichever goroutine opens it.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	req   int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), req: -1} }

// request opens the root span of a new request.
func (t *tracer) request(name string) int {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
	return t.begin(name)
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Req: t.req, Parent: parent, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch)
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d (%s) closed out of order", id, t.spans[id].Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, c := range kids {
			lo, hi := max(spans[c].Start, cursor), min(spans[c].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTotal is the summed time of every span of one name.
type layerTotal struct {
	calls int
	total time.Duration
	self  time.Duration
}

// layerTotals groups spans by name.
func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.total += s.End - s.Start
		lt.self += self[i]
		out[s.Name] = lt
	}
	return out
}

// writeLayerTable prints one row per layer: calls, total and self time per
// request.
func writeLayerTable(w io.Writer, workload string, totals map[string]layerTotal, requests int) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "layer table: %s, %d requests (means per request)\n", workload, requests)
	fmt.Fprintf(w, "  %-16s %10s %12s %12s\n", "layer", "calls/req", "total_us", "self_us")
	for _, n := range names {
		lt := totals[n]
		r := float64(requests)
		fmt.Fprintf(w, "  %-16s %10.3f %12.2f %12.2f\n", n, float64(lt.calls)/r,
			micros(lt.total)/r, micros(lt.self)/r)
	}
}

// writeSpans writes the envelope and then one JSON span per line.
func writeSpans(w io.Writer, env any, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(env); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// The wrappers below time each interface the program takes by injection.

type tracedCache struct {
	core.Cache
	tr *tracer
}

func (c *tracedCache) Get(q vec.Vector) ([]int, bool) {
	id := c.tr.begin(spanGet)
	defer c.tr.end(id)
	return c.Cache.Get(q)
}

func (c *tracedCache) Put(q vec.Vector, docs []int) {
	id := c.tr.begin(spanPut)
	defer c.tr.end(id)
	c.Cache.Put(q, docs)
}

type tracedDB struct {
	vectordb.DB
	tr *tracer
}

func (d *tracedDB) Search(q vec.Vector, k int) ([]vec.Scored, error) {
	id := d.tr.begin(spanSearch)
	defer d.tr.end(id)
	return d.DB.Search(q, k)
}

type tracedSource struct {
	src vectordb.VectorSource
	tr  *tracer
}

func (s *tracedSource) Vector(docID int) (vec.Vector, error) {
	id := s.tr.begin(spanSource)
	defer s.tr.end(id)
	return s.src.Vector(docID)
}

type tracedEmbedder struct {
	embed.Embedder
	tr *tracer
}

func (e *tracedEmbedder) Embed(text string) vec.Vector {
	id := e.tr.begin(spanEmbed)
	defer e.tr.end(id)
	return e.Embedder.Embed(text)
}

type tracedDocs struct {
	docs server.Documents
	tr   *tracer
}

func (d *tracedDocs) Text(docID int) (string, error) {
	id := d.tr.begin(spanText)
	defer d.tr.end(id)
	return d.docs.Text(docID)
}

type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.begin(spanHandler)
	defer h.tr.end(id)
	h.next.ServeHTTP(w, r)
}
