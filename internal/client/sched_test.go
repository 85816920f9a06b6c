package client

import (
	"fmt"
	"reflect"
	"testing"
)

// scriptProc is a fake Process acting at a fixed sequence of slots,
// recording each step into a shared log. Equal slots across processes are
// the interesting case: they exercise the scheduler's tie-break.
type scriptProc struct {
	name  string
	slots []int64
	next  int
	log   *[]string
}

func (p *scriptProc) Peek() (int64, bool) {
	if p.next >= len(p.slots) {
		return 0, true
	}
	return p.slots[p.next], false
}

func (p *scriptProc) Step() {
	*p.log = append(*p.log, fmt.Sprintf("%s@%d", p.name, p.slots[p.next]))
	p.next++
}

// TestStepEarliestTieBreak pins the documented StepEarliest contract: on
// equal slots the lowest slice index steps first, every time.
func TestStepEarliestTieBreak(t *testing.T) {
	var log []string
	a := &scriptProc{name: "a", slots: []int64{5, 5, 9}, log: &log}
	b := &scriptProc{name: "b", slots: []int64{5, 7, 9}, log: &log}
	RunParallel(a, b)
	want := []string{"a@5", "a@5", "b@5", "b@7", "a@9", "b@9"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("step sequence %v, want %v", log, want)
	}
}
