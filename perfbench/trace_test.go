package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestSelfTimesNested(t *testing.T) {
	// root [0,100] has children a [10,30] and b [40,90]; b has a child
	// c [50,60]. Self: root 100-20-50, a 20, b 50-10, c 10.
	spans := []span{
		{Name: "root", Parent: -1, Start: us(0), End: us(100)},
		{Name: "a", Parent: 0, Start: us(10), End: us(30)},
		{Name: "b", Parent: 0, Start: us(40), End: us(90)},
		{Name: "c", Parent: 2, Start: us(50), End: us(60)},
	}
	want := []time.Duration{us(30), us(20), us(40), us(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestSelfTimesOverlappingChildrenCountOnce(t *testing.T) {
	// Children [10,50] and [30,70] together cover [10,70]; a child that
	// runs past its parent's end is clipped.
	spans := []span{
		{Name: "root", Parent: -1, Start: us(0), End: us(100)},
		{Name: "x", Parent: 0, Start: us(30), End: us(70)},
		{Name: "y", Parent: 0, Start: us(10), End: us(50)},
		{Name: "z", Parent: 0, Start: us(90), End: us(120)},
	}
	if got := selfTimes(spans)[0]; got != us(30) {
		t.Errorf("self(root) = %v, want 30µs", got)
	}
}

func TestLayerTotals(t *testing.T) {
	spans := []span{
		{Name: "root", Req: 0, Parent: -1, Start: us(0), End: us(10)},
		{Name: "leaf", Req: 0, Parent: 0, Start: us(2), End: us(6)},
		{Name: "root", Req: 1, Parent: -1, Start: us(20), End: us(40)},
		{Name: "leaf", Req: 1, Parent: 2, Start: us(25), End: us(30)},
	}
	lt := layerTotals(spans)
	if got := lt["root"]; got.calls != 2 || got.total != us(30) || got.self != us(21) {
		t.Errorf("root = %+v, want 2 calls, 30µs total, 21µs self", got)
	}
	if got := lt["leaf"]; got.calls != 2 || got.total != us(9) || got.self != us(9) {
		t.Errorf("leaf = %+v, want 2 calls, 9µs total and self", got)
	}
}

func TestTracerNestsAndNumbersRequests(t *testing.T) {
	tr := newTracer()
	for i := 0; i < 2; i++ {
		root := tr.request(spanClient)
		h := tr.begin(spanHandler)
		g := tr.begin(spanGet)
		tr.end(g)
		tr.end(h)
		tr.end(root)
	}
	spans := tr.snapshot()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	wantParent := []int{-1, 0, 1, -1, 3, 4}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
		if s.Req != i/3 {
			t.Errorf("span %d request = %d, want %d", i, s.Req, i/3)
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}

func TestTracerPanicsOnOutOfOrderEnd(t *testing.T) {
	tr := newTracer()
	a := tr.request(spanClient)
	tr.begin(spanHandler)
	defer func() {
		if recover() == nil {
			t.Error("closing an outer span first did not panic")
		}
	}()
	tr.end(a)
}

func TestWriteSpansAndLayerTable(t *testing.T) {
	spans := []span{
		{Name: spanClient, Parent: -1, Start: us(0), End: us(10)},
		{Name: spanHandler, Parent: 0, Start: us(2), End: us(8)},
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, map[string]string{"seed": "1"}, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want envelope plus 2 spans", len(lines))
	}
	var got span
	if err := json.Unmarshal([]byte(lines[2]), &got); err != nil {
		t.Fatal(err)
	}
	if got != spans[1] {
		t.Errorf("span round trip = %+v, want %+v", got, spans[1])
	}
	buf.Reset()
	writeLayerTable(&buf, "w", layerTotals(spans), 1)
	if !strings.Contains(buf.String(), spanHandler) || !strings.Contains(buf.String(), "6.00") {
		t.Errorf("layer table lacks the handler row:\n%s", buf.String())
	}
}
