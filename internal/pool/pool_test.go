package pool

import (
	"errors"
	"fmt"
	"testing"
)

// TestParallelMap pins the pool's contract: input order, worker
// independence, lowest-index error.
func TestParallelMap(t *testing.T) {
	in := make([]int, 100)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 3, 64, 200} {
		out, err := ParallelMap(workers, in, func(x int) (int, error) { return x * x, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	wantErr := errors.New("boom-17")
	_, err := ParallelMap(8, in, func(x int) (int, error) {
		if x == 17 || x == 63 {
			return 0, fmt.Errorf("boom-%d", x)
		}
		return x, nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error = %v, want lowest-index %v", err, wantErr)
	}
	if out, err := ParallelMap(4, nil, func(x int) (int, error) { return x, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v %v", out, err)
	}
}
