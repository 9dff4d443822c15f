package core

import (
	"context"
	"sync"
	"testing"
)

// The engine documents itself as safe for concurrent readers; this test
// backs the claim (run with -race to make it meaningful).
func TestConcurrentReaders(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 10, ModeApprox, -1)
	queries := [][]float64{
		d.Series[0].Values[0:8],
		d.Series[1].Values[3:9],
		d.Series[2].Values[5:12],
		d.Series[3].Values[0:6],
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := bestMatch(e, q, QueryConstraints{}); err != nil {
					errs <- err
					return
				}
				if _, err := kBest(e, q, 3, QueryConstraints{}); err != nil {
					errs <- err
					return
				}
				if _, err := within(e, q, FindOptions{MaxDist: 0.5, K: 5}); err != nil {
					errs <- err
					return
				}
				if _, err := e.OverviewContext(context.Background(), 6, 4, nil); err != nil {
					errs <- err
					return
				}
				if _, err := e.SeasonalByIndexContext(context.Background(), 0, SeasonalOptions{MinOccurrences: 2}, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
