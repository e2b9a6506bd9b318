package main

import (
	"fmt"

	"proximity/internal/dataset"
	"proximity/internal/llm"
	"proximity/internal/vec"
	"proximity/internal/zipf"
)

// Program shape shared by every workload: the MedRAG-sim corpus served by
// an exact flat index, K = 4 documents per query with re-rank factor ρ = 4.
const (
	corpusTopics = 50
	docsPerTopic = 30
	questions    = 500
	embedDim     = 768
	topK         = 4
	rerank       = 4
	tolerance    = 5
)

// Cache shapes: the proximity-server defaults for -cache lsh and -cache flat.
const (
	lshBits      = 8
	lshBucket    = 20
	flatCapacity = 200
)

// zipfDraws and zipfExponent shape the paper's MedRAG-Zipf stream.
const (
	zipfDraws    = 10000
	zipfExponent = 0.8
)

// workload is one set of inputs and the entry point they are sent through.
type workload struct {
	name string
	// http sends requests through server.Client; otherwise they go to
	// core.CachedRetriever.Retrieve in process.
	http bool
	// text sends canonical question text to /v1/query (embedded server
	// side); otherwise embeddings go to /v1/retrieve.
	text bool
	// lsh selects the LSH cache; otherwise the FLAT cache.
	lsh bool
}

var workloads = []workload{
	{name: "zipf-http", http: true, lsh: true},
	{name: "zipf-lib", lsh: true},
	{name: "cold-text", http: true, text: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// query is one request of a workload's stream.
type query struct {
	text string     // sent to /v1/query by text workloads
	emb  vec.Vector // sent by embedding workloads; the oracle's query for all
}

// inputs holds everything a run sends, plus the benchmark's own copy of the
// corpus that answers are checked against. Both are built from the seed
// before the program is set up.
type inputs struct {
	stream []query
	corpus []vec.Vector // passage embeddings, by document ID
	texts  []string     // passage texts, by document ID
}

// newMedRAG builds the MedRAG-sim benchmark that both the program and the
// oracle are made from.
func newMedRAG(seed uint64) (*dataset.Benchmark, error) {
	return dataset.NewMedRAG(dataset.MedRAGConfig{
		Questions:    questions,
		Topics:       corpusTopics,
		DocsPerTopic: docsPerTopic,
		Dim:          embedDim,
		Seed:         seed,
	})
}

// makeInputs builds the workload's request stream from the seed. draws is
// the Zipf stream length; text workloads always ask each question once.
func makeInputs(w workload, seed uint64, draws int) (*inputs, error) {
	ref, err := newMedRAG(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{corpus: ref.Corpus.Embeddings, texts: make([]string, ref.Corpus.Len())}
	for i, d := range ref.Corpus.Docs {
		in.texts[i] = d.Text
	}
	if w.text {
		in.stream = canonicalStream(ref, seed)
	} else {
		in.stream, err = zipfStream(ref, draws, seed)
	}
	return in, err
}

// zipfStream draws n questions with Zipf skew s = 0.8 and rephrases every
// occurrence uniquely. The rephraser has no thesaurus: synonym swaps do not
// move the embedding, so only the chatter prefix and the content-word
// inflections (MinSwaps..MaxSwaps per Benchmark.Style) shape the query.
func zipfStream(ref *dataset.Benchmark, n int, seed uint64) ([]query, error) {
	rng := vec.NewRand(seed + 101)
	sampler, err := zipf.NewSampler(rng, len(ref.Questions), zipfExponent)
	if err != nil {
		return nil, err
	}
	rankToQuestion := rng.Perm(len(ref.Questions))
	rephraser := llm.NewRephraser(nil, seed+102)
	enc := ref.Embedder()
	style := ref.Style
	out := make([]query, n)
	for i := range out {
		q := ref.Questions[rankToQuestion[sampler.Next()]]
		swaps := style.MinSwaps + rng.IntN(style.MaxSwaps-style.MinSwaps+1)
		out[i] = query{emb: enc.Embed(rephraser.Paraphrase(q.Text, i, swaps))}
	}
	return out, nil
}

// canonicalStream asks every question once, in canonical text, in a
// seed-shuffled order.
func canonicalStream(ref *dataset.Benchmark, seed uint64) []query {
	enc := ref.Embedder()
	order := vec.NewRand(seed + 103).Perm(len(ref.Questions))
	out := make([]query, len(order))
	for i, qi := range order {
		text := ref.Questions[qi].Text
		out[i] = query{text: text, emb: enc.Embed(text)}
	}
	return out
}
