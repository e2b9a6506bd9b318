package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"proximity/internal/vec"
)

func randomVectors(rng *rand.Rand, n, dim int) []vec.Vector {
	out := make([]vec.Vector, n)
	for i := range out {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestExactTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	vs := randomVectors(rng, 500, 37)
	corpus := newFlatCorpus(vs)
	for trial := 0; trial < 20; trial++ {
		q := to64(randomVectors(rng, 1, 37)[0])
		all := make([]scored, len(vs))
		for id, v := range vs {
			var d float64
			for j := range v {
				d += (q[j] - float64(v[j])) * (q[j] - float64(v[j]))
			}
			all[id] = scored{id: id, dist: d}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		for _, k := range []int{1, 4, 16} {
			got := exactTopK(corpus, q, k)
			if len(got) != k {
				t.Fatalf("k=%d: %d results", k, len(got))
			}
			for i := range got {
				if got[i].id != all[i].id || math.Abs(got[i].dist-all[i].dist) > 1e-9*all[i].dist {
					t.Fatalf("trial %d k=%d: result %d = %+v, want %+v", trial, k, i, got[i], all[i])
				}
			}
		}
	}
}

func TestExactTopKShortCorpus(t *testing.T) {
	corpus := newFlatCorpus([]vec.Vector{{3}, {1}, {2}})
	got := exactTopK(corpus, []float64{0}, 5)
	if len(got) != 3 || got[0].id != 1 || got[1].id != 2 || got[2].id != 0 {
		t.Errorf("exactTopK = %+v, want ids 1, 2, 0", got)
	}
}

func TestSqDistOddLength(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{0, 0, 0, 0, 0}
	if got := sqDist(a, b); got != 55 {
		t.Errorf("sqDist = %v, want 55", got)
	}
}

// lineOracle serves a corpus of points 0, 1, ..., 9 on a line.
func lineOracle(queries ...float32) *oracle {
	in := &inputs{}
	for i := 0; i < 10; i++ {
		in.corpus = append(in.corpus, vec.Vector{float32(i)})
		in.texts = append(in.texts, string(rune('a'+i)))
	}
	for _, q := range queries {
		in.stream = append(in.stream, query{emb: vec.Vector{q}})
	}
	return newOracle(in)
}

func TestOracleExactSetUpToTies(t *testing.T) {
	// Query 1.5: the top-4 set is {0,1,2,3} in any order. Query 5 has a
	// tie at the 4th place: {3,7} are both 2 away.
	o := lineOracle(1.5, 5)
	o.prepare([]int{0, 1})
	for _, docs := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
		if err := o.checkExact(0, docs); err != nil {
			t.Errorf("docs %v: %v", docs, err)
		}
	}
	if err := o.checkExact(0, []int{0, 1, 2, 4}); err == nil {
		t.Error("docs with doc 4 instead of 3 passed the exact check")
	}
	for _, docs := range [][]int{{4, 5, 6, 3}, {4, 5, 6, 7}} {
		if err := o.checkExact(1, docs); err != nil {
			t.Errorf("tied docs %v: %v", docs, err)
		}
	}
	if got := o.recall([]served{{0, []int{0, 1, 2, 3}}, {0, []int{0, 1, 8, 9}}}); got != 0.75 {
		t.Errorf("recall = %v, want 0.75", got)
	}
}

func TestOracleCheckShape(t *testing.T) {
	o := lineOracle(0)
	ok := answer{docs: []int{0, 1, 2, 3}, texts: []string{"a", "b", "c", "d"}}
	if err := o.checkShape(ok, true); err != nil {
		t.Errorf("well-formed answer: %v", err)
	}
	for name, a := range map[string]answer{
		"too few docs":   {docs: []int{0, 1, 2}},
		"out of range":   {docs: []int{0, 1, 2, 10}},
		"negative id":    {docs: []int{0, 1, 2, -1}},
		"duplicate":      {docs: []int{0, 1, 1, 3}},
		"missing texts":  {docs: []int{0, 1, 2, 3}},
		"wrong text":     {docs: []int{0, 1, 2, 3}, texts: []string{"a", "b", "c", "x"}},
		"texts misorder": {docs: []int{0, 1, 2, 3}, texts: []string{"b", "a", "c", "d"}},
	} {
		if err := o.checkShape(a, true); err == nil {
			t.Errorf("%s: passed the shape check", name)
		}
	}
	if err := o.checkShape(answer{docs: []int{0, 1, 2, 3}}, false); err != nil {
		t.Errorf("library answer without texts: %v", err)
	}
}
