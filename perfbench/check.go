package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"proximity/internal/vec"
)

// tieTolerance is the relative slack allowed when comparing a served
// document's distance with the exact K-th distance, so that float32
// rounding in the program cannot turn a tie into a failure.
const tieTolerance = 1e-4

// scored is one exact search result.
type scored struct {
	id   int
	dist float64 // squared L2
}

// flatCorpus holds the corpus as float64 rows in one array, so that an
// exact scan converts nothing but the query.
type flatCorpus struct {
	dim  int
	data []float64
}

func newFlatCorpus(vs []vec.Vector) flatCorpus {
	c := flatCorpus{}
	if len(vs) > 0 {
		c.dim = len(vs[0])
	}
	c.data = make([]float64, 0, len(vs)*c.dim)
	for _, v := range vs {
		c.data = append(c.data, to64(v)...)
	}
	return c
}

func (c flatCorpus) len() int { return len(c.data) / c.dim }

func (c flatCorpus) row(id int) []float64 { return c.data[id*c.dim : (id+1)*c.dim] }

func to64(v vec.Vector) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// exactTopK returns the k corpus rows nearest to q by squared L2, closest
// first, from a float64 scan of every row.
func exactTopK(c flatCorpus, q []float64, k int) []scored {
	top := make([]scored, 0, k+1)
	for id := 0; id < c.len(); id++ {
		d := sqDist(q, c.row(id))
		if len(top) == k && d >= top[k-1].dist {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return top[i].dist > d })
		top = append(top, scored{})
		copy(top[i+1:], top[i:])
		top[i] = scored{id: id, dist: d}
		if len(top) > k {
			top = top[:k]
		}
	}
	return top
}

func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// oracle checks answers against the benchmark's own copy of the corpus.
// The exact K-th distance of each stream query is computed once, on first
// need, and kept.
type oracle struct {
	corpus flatCorpus
	texts  []string
	stream []query
	kth    map[int]float64 // stream index -> exact K-th squared distance
}

func newOracle(in *inputs) *oracle {
	return &oracle{corpus: newFlatCorpus(in.corpus), texts: in.texts, stream: in.stream, kth: make(map[int]float64)}
}

// prepare computes the exact K-th distance of every listed query not yet
// known, on GOMAXPROCS goroutines.
func (o *oracle) prepare(idx []int) {
	var todo []int
	for _, i := range idx {
		if _, ok := o.kth[i]; !ok {
			o.kth[i] = 0
			todo = append(todo, i)
		}
	}
	kth := make([]float64, len(todo))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(todo); j += workers {
				top := exactTopK(o.corpus, to64(o.stream[todo[j]].emb), topK)
				kth[j] = top[len(top)-1].dist
			}
		}(w)
	}
	wg.Wait()
	for j, i := range todo {
		o.kth[i] = kth[j]
	}
}

// checkShape verifies what needs no search: K distinct documents with IDs
// in range and, when texts are served, the corpus text of each.
func (o *oracle) checkShape(a answer, wantTexts bool) error {
	if len(a.docs) != topK {
		return fmt.Errorf("%d docs, want %d", len(a.docs), topK)
	}
	for i, id := range a.docs {
		if id < 0 || id >= len(o.texts) {
			return fmt.Errorf("doc %d out of range [0,%d)", id, len(o.texts))
		}
		for _, prev := range a.docs[:i] {
			if prev == id {
				return fmt.Errorf("doc %d served twice", id)
			}
		}
	}
	if !wantTexts {
		return nil
	}
	if len(a.texts) != len(a.docs) {
		return fmt.Errorf("%d texts for %d docs", len(a.texts), len(a.docs))
	}
	for i, id := range a.docs {
		if a.texts[i] != o.texts[id] {
			return fmt.Errorf("text of doc %d differs from the corpus", id)
		}
	}
	return nil
}

// relevant counts the served documents that belong to the exact top-K of
// query i, ties included. prepare must have covered i.
func (o *oracle) relevant(i int, docs []int) int {
	limit := o.kth[i] * (1 + tieTolerance)
	q := to64(o.stream[i].emb)
	n := 0
	for _, id := range docs {
		if sqDist(q, o.corpus.row(id)) <= limit {
			n++
		}
	}
	return n
}

// checkExact verifies that a miss served, as a set, the exact top-K of
// query i. checkShape must have passed and prepare must have covered i.
func (o *oracle) checkExact(i int, docs []int) error {
	if n := o.relevant(i, docs); n != len(docs) {
		return errors.New("miss did not serve the exact top-K")
	}
	return nil
}

// recall is the mean recall@K of the served documents over the sampled
// queries. prepare must have covered them.
func (o *oracle) recall(sample []served) float64 {
	if len(sample) == 0 {
		return 0
	}
	var sum float64
	for _, s := range sample {
		sum += float64(o.relevant(s.idx, s.docs)) / topK
	}
	return sum / float64(len(sample))
}

// served is one answer kept for a check after its phase.
type served struct {
	idx  int
	docs []int
}

// indices lists the stream indices of answers.
func indices(s []served) []int {
	out := make([]int, len(s))
	for i, x := range s {
		out[i] = x.idx
	}
	return out
}
