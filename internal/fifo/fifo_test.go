package fifo

import (
	"sync"
	"testing"
)

func TestOrderAndDrainAfterClose(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 5; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d refused on an open queue", i)
		}
	}
	if !q.Close() || q.Close() {
		t.Fatal("Close must report true exactly once")
	}
	if q.Push(9) {
		t.Fatal("push accepted after Close")
	}
	if !q.Closed() {
		t.Fatal("Closed() false after Close")
	}
	for i := 0; i < 5; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d: got %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on a closed, drained queue")
	}
}

// TestRetentionPopForgets is the property the package exists for: a popped slot is
// zeroed, an emptied queue rewinds onto its array, and a queue that never
// empties slides instead of growing over its vacated slots.
func TestRetentionPopForgets(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 4; i++ {
		q.Push(new(int))
	}
	q.Pop()
	q.Pop()
	for i, p := range q.items[:q.head] {
		if p != nil {
			t.Fatalf("vacated slot %d still holds its element", i)
		}
	}
	q.Pop()
	q.Pop()
	if q.head != 0 || len(q.items) != 0 || cap(q.items) < 4 {
		t.Fatalf("emptied queue did not rewind: head %d len %d cap %d", q.head, len(q.items), cap(q.items))
	}

	// Steady state with a backlog of one to three: the array must stop
	// growing once it can hold the backlog twice over.
	for i := 0; i < 3; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 10_000; i++ {
		q.Push(new(int))
		q.Pop()
	}
	if cap(q.items) > 16 {
		t.Fatalf("queue with a backlog of 3 grew to %d slots", cap(q.items))
	}
	for i, p := range q.items[:q.head] {
		if p != nil {
			t.Fatalf("slot %d below head holds an element after sliding", i)
		}
	}
}

func TestBlockingPopAndCloseWake(t *testing.T) {
	var q Queue[string]
	got := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := q.Pop()
				if !ok {
					return
				}
				got <- v
			}
		}()
	}
	q.Push("a")
	if v := <-got; v != "a" {
		t.Fatalf("got %q", v)
	}
	q.Close()
	wg.Wait() // every blocked Pop was released
}
