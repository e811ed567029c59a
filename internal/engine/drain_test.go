package engine

import (
	"errors"
	"testing"
	"time"
)

var errScanFault = errors.New("injected scan fault")

// faultyIter serves its scan's first batch and fails on the second
// pull, like a scan hitting a corrupt segment.
type faultyIter struct {
	Iterator
	pulls int
}

func (f *faultyIter) Next() (*ColBatch, bool, error) {
	if f.pulls++; f.pulls > 1 {
		return nil, false, errScanFault
	}
	return f.Iterator.Next()
}

// TestDrainReportsLookAheadError: when the first batch lands exactly on
// the row cap, the drain pulls once more to learn whether a row lay past
// it. A failure of that pull is the query's failure, not "complete, not
// truncated".
func TestDrainReportsLookAheadError(t *testing.T) {
	rel := testRel([]string{"a"}, [][]int64{{0}, {1}, {2}})
	_, over, err := DrainLimited(&faultyIter{Iterator: NewScan(rel)}, rel.Len(), time.Time{})
	if !errors.Is(err, errScanFault) {
		t.Fatalf("DrainLimited returned over=%v, err=%v; want the scan's error", over, err)
	}
}

// TestDrainLimited: the cap cuts the rows and reports whether a row lay
// past it — none does when the result has exactly the cap's rows, in one
// batch or when a batch ends on the cap — and a passed deadline stops
// the drain before its first pull.
func TestDrainLimited(t *testing.T) {
	for _, c := range []struct {
		rows, max, want int
		over            bool
	}{
		{3, 0, 3, false},
		{3, 2, 2, true},
		{3, 3, 3, false},
		{3, 4, 3, false},
		{DefaultBatchSize, DefaultBatchSize, DefaultBatchSize, false},
		{DefaultBatchSize + 1, DefaultBatchSize, DefaultBatchSize, true},
		{2*DefaultBatchSize + 5, DefaultBatchSize + 1, DefaultBatchSize + 1, true},
	} {
		vals := make([][]int64, c.rows)
		for i := range vals {
			vals[i] = []int64{int64(i)}
		}
		rel, over, err := DrainLimited(NewScan(testRel([]string{"a"}, vals)), c.max, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != c.want || over != c.over {
			t.Errorf("%d rows under cap %d: %d rows, over=%v; want %d rows, over=%v",
				c.rows, c.max, rel.Len(), over, c.want, c.over)
		}
		if c.over {
			continue
		}
		for i, row := range rel.Rows {
			if row[0].I != int64(i) {
				t.Fatalf("%d rows under cap %d: row %d is %v", c.rows, c.max, i, row)
			}
		}
	}
	rel := testRel([]string{"a"}, [][]int64{{0}})
	if _, _, err := DrainLimited(NewScan(rel), 0, time.Now().Add(-time.Second)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("a passed deadline: err=%v, want ErrDeadline", err)
	}
}
