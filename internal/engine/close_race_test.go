package engine

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCloseRacesInFlightAppend: Close concurrent with a stream of Appends
// must neither race nor panic — every Append either lands before the
// close or returns ErrClosed, and Close returns with the engine's
// goroutines stopped. The interesting windows are Close hitting an Append
// mid-hand-off and an Append arriving after the router is gone; run under
// -race this pins the engine's done-channel and shard-channel teardown
// ordering.
func TestCloseRacesInFlightAppend(t *testing.T) {
	batches := testWorkload(t, 120, 48, 8)
	for round := 0; round < 8; round++ {
		e, err := New(Config{Pipeline: testPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, b := range batches {
					if err := e.Append(b); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Append during Close: %v", err)
						}
						return
					}
				}
			}(w)
		}
		// No synchronisation on purpose: some rounds close before the
		// first Append, some mid-stream, some after the last.
		e.Close()
		wg.Wait()
		// The engine must still answer queries after a racy close.
		_ = e.Snapshot(Query{})
	}
}

// TestCloseRacesFlush: a Flush racing with Close must return — whether its
// barrier reached the router first or the close did — and every batch
// accepted before the close must be applied by the time Close returns.
func TestCloseRacesFlush(t *testing.T) {
	batches := testWorkload(t, 120, 48, 8)
	for round := 0; round < 8; round++ {
		e, err := New(Config{Pipeline: testPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for _, b := range batches[:4] {
			if err := e.Append(b); err != nil {
				t.Fatal(err)
			}
			accepted += b.Domain.N
		}
		flushed := make(chan struct{})
		go func() {
			e.Flush()
			close(flushed)
		}()
		e.Close()
		select {
		case <-flushed:
		case <-time.After(10 * time.Second):
			t.Fatal("Flush racing Close never returned")
		}
		if got := e.Ticks(); got != accepted {
			t.Fatalf("round %d: ticks = %d after Close, want %d accepted", round, got, accepted)
		}
	}
}

// TestCloseThenFlush: Flush after Close must return, including on an
// engine closed under a stream of Appends.
func TestCloseThenFlush(t *testing.T) {
	batches := testWorkload(t, 120, 48, 8)
	e, err := New(Config{Pipeline: testPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	appending := make(chan struct{})
	go func() {
		defer close(appending)
		for _, b := range batches {
			if err := e.Append(b); err != nil {
				return
			}
		}
	}()
	e.Close()
	flushed := make(chan struct{})
	go func() {
		e.Flush()
		e.Flush()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("Flush after Close never returned")
	}
	<-appending
	if err := e.Append(batches[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
}
