package admission

import (
	"runtime"
	"sync"
	"testing"
)

func TestQueueServeOrder(t *testing.T) {
	q := NewQueue[int]()
	// Interleave classes; serve order must be all interactive (FIFO), then
	// batch, then background.
	q.Push(30, Background, 100)
	q.Push(10, Interactive, 100)
	q.Push(20, Batch, 100)
	q.Push(11, Interactive, 100)
	q.Push(21, Batch, 100)
	want := []struct {
		v int
		c Class
	}{{10, Interactive}, {11, Interactive}, {20, Batch}, {21, Batch}, {30, Background}}
	for i, w := range want {
		v, c, ok := q.TryPop()
		if !ok || v != w.v || c != w.c {
			t.Fatalf("pop %d = (%d, %v, %v), want (%d, %v, true)", i, v, c, ok, w.v, w.c)
		}
	}
	if _, _, ok := q.TryPop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestQueueLIFOEvictionWithinLowerClass(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1, Batch, 3)
	q.Push(2, Batch, 3)
	q.Push(3, Background, 3)
	// Budget exhausted. An interactive arrival must evict the *youngest*
	// entry of the *lowest* non-empty class below it: background 3.
	res, victim := q.Push(100, Interactive, 3)
	if res != AdmittedEvicted || victim != 3 {
		t.Fatalf("push = (%v, %d), want (AdmittedEvicted, 3)", res, victim)
	}
	// Next interactive arrival: background empty, so the youngest batch (2)
	// goes.
	res, victim = q.Push(101, Interactive, 3)
	if res != AdmittedEvicted || victim != 2 {
		t.Fatalf("push = (%v, %d), want (AdmittedEvicted, 2)", res, victim)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

func TestQueueNeverEvictsSameOrHigherClass(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1, Interactive, 2)
	q.Push(2, Batch, 2)
	// A batch arrival over budget may not evict the queued batch entry
	// (same class) or the interactive one (higher class).
	res, _ := q.Push(3, Batch, 2)
	if res != Rejected {
		t.Fatalf("batch push over budget = %v, want Rejected", res)
	}
	// A background arrival has nothing below it to shed.
	res, _ = q.Push(4, Background, 2)
	if res != Rejected {
		t.Fatalf("background push over budget = %v, want Rejected", res)
	}
	if got := q.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2 (no evictions)", got)
	}
}

func TestQueueZeroBudgetRejectsUnlessEvictable(t *testing.T) {
	q := NewQueue[int]()
	if res, _ := q.Push(1, Interactive, 0); res != Rejected {
		t.Fatalf("push into zero budget = %v, want Rejected", res)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue[int]()
	q.Push(1, Interactive, 10)
	q.Push(2, Batch, 10)
	if !q.Close() {
		t.Fatal("first Close should return true")
	}
	if q.Close() {
		t.Fatal("second Close should return false")
	}
	if res, _ := q.Push(3, Interactive, 10); res != Closed {
		t.Fatalf("push after close = %v, want Closed", res)
	}
	// Queued items remain poppable.
	if v, _, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = (%d, %v), want (1, true)", v, ok)
	}
	if v, _, ok := q.TryPop(); !ok || v != 2 {
		t.Fatalf("TryPop = (%d, %v), want (2, true)", v, ok)
	}
	if _, _, ok := q.TryPop(); ok {
		t.Fatal("TryPop after drain of a closed queue should report !ok")
	}
}

func TestQueueConcurrentProducers(t *testing.T) {
	q := NewQueue[int]()
	const perClass = 200
	var wg sync.WaitGroup
	for c := Class(0); c < NumClasses; c++ {
		wg.Add(1)
		go func(c Class) {
			defer wg.Done()
			for i := 0; i < perClass; i++ {
				q.Push(int(c)*perClass+i, c, 10*perClass)
			}
		}(c)
	}
	drained := make(chan int)
	go func() {
		n := 0
		for {
			if _, _, ok := q.TryPop(); ok {
				n++
				continue
			}
			// Close follows the last Push, so once the queue reports
			// closed, an empty TryPop means it is drained.
			if q.IsClosed() {
				for _, _, ok := q.TryPop(); ok; _, _, ok = q.TryPop() {
					n++
				}
				drained <- n
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	q.Close()
	if n := <-drained; n != int(NumClasses)*perClass {
		t.Fatalf("drained %d items, want %d", n, int(NumClasses)*perClass)
	}
}
