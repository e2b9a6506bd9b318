package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"proximity/internal/core"
	"proximity/internal/dataset"
	"proximity/internal/embed"
	"proximity/internal/server"
	"proximity/internal/telemetry"
	"proximity/internal/vec"
	"proximity/internal/vectordb"
)

// program is the part of the serving process that outlives a cache: the
// corpus and the exact flat index over it.
type program struct {
	w     workload
	seed  uint64
	bench *dataset.Benchmark
	db    *vectordb.FlatIndex
}

// setUp builds the corpus, embeds it and indexes it, as proximity-server
// -seed does at start-up.
func setUp(w workload, seed uint64) (*program, error) {
	bench, err := newMedRAG(seed)
	if err != nil {
		return nil, err
	}
	db, err := vectordb.NewFlatFromVectors(bench.Corpus.Embeddings, vec.L2Distance)
	if err != nil {
		return nil, err
	}
	return &program{w: w, seed: seed, bench: bench, db: db}, nil
}

// instance is one serving stack over the program's corpus: a fresh cache and
// retriever and, for HTTP workloads, the server on a loopback listener.
type instance struct {
	w      workload
	cache  core.Cache
	retr   *core.CachedRetriever
	client *server.Client
	hs     *http.Server
	served chan error
}

// answer is what one request returned.
type answer struct {
	docs  []int
	texts []string
	hit   bool
}

// start builds a fresh cache, retriever and server. With a tracer, every
// interface the program takes by injection is wrapped to record spans.
func (p *program) start(tr *tracer) (*instance, error) {
	var cache core.Cache
	var err error
	if p.w.lsh {
		cache, err = core.NewLSH(embedDim, core.LSHOptions{
			Bits:           lshBits,
			BucketCapacity: lshBucket,
			Tolerance:      tolerance,
			Policy:         core.LRU,
			Seed:           p.seed,
		})
	} else {
		cache, err = core.NewFlat(embedDim, core.Options{
			Capacity:  flatCapacity,
			Tolerance: tolerance,
			Policy:    core.LRU,
		})
	}
	if err != nil {
		return nil, err
	}
	inst := &instance{w: p.w, cache: cache}

	var db vectordb.DB = p.db
	var source vectordb.VectorSource = p.db
	var emb embed.Embedder = p.bench.Embedder()
	var docs server.Documents = corpusDocs{p.bench}
	if tr != nil {
		cache = &tracedCache{Cache: cache, tr: tr}
		db = &tracedDB{DB: db, tr: tr}
		source = &tracedSource{src: source, tr: tr}
		emb = &tracedEmbedder{Embedder: emb, tr: tr}
		docs = &tracedDocs{docs: docs, tr: tr}
	}
	tel := telemetry.New(telemetry.Options{})
	inst.retr, err = core.NewCachedRetriever(cache, db, core.RetrieverOptions{
		K:         topK,
		Rerank:    rerank,
		Source:    source,
		Telemetry: tel,
	})
	if err != nil {
		return nil, err
	}
	if !p.w.http {
		return inst, nil
	}

	srv, err := server.New(server.Config{
		Retriever: inst.retr,
		Embedder:  emb,
		Docs:      docs,
		Telemetry: tel,
	})
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = tracedHandler{next: handler, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	inst.hs = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	inst.served = make(chan error, 1)
	go func() { inst.served <- inst.hs.Serve(ln) }()
	inst.client = server.NewClient("http://" + ln.Addr().String())
	return inst, nil
}

// stop closes the listener and its connections and waits for the server
// goroutine to return.
func (inst *instance) stop() error {
	if inst.hs == nil {
		return nil
	}
	err := inst.hs.Close()
	if serveErr := <-inst.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// call sends one query through the workload's entry point.
func (inst *instance) call(q query) (answer, error) {
	switch {
	case inst.w.text:
		r, err := inst.client.Query(q.text)
		return answer{docs: r.Docs, texts: r.Texts, hit: r.Hit}, err
	case inst.w.http:
		r, err := inst.client.Retrieve(q.emb)
		return answer{docs: r.Docs, texts: r.Texts, hit: r.Hit}, err
	default:
		r, err := inst.retr.Retrieve(q.emb)
		return answer{docs: r.Docs, hit: r.Hit}, err
	}
}

// corpusDocs resolves passage text from the program's corpus, as
// proximity-server does.
type corpusDocs struct{ bench *dataset.Benchmark }

func (c corpusDocs) Text(id int) (string, error) {
	if id < 0 || id >= c.bench.Corpus.Len() {
		return "", fmt.Errorf("doc %d out of range", id)
	}
	return c.bench.Corpus.Docs[id].Text, nil
}
