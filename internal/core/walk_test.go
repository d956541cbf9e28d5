package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// walkCommit is one commit a test walk observed.
type walkCommit struct {
	step int
	res  []int
	err  error
}

// runWalk walks n steps of ints on workers workers with a window of 16. A
// step's full result is [10i, 10i+1]: it appends 10i, runs mid (nil passes),
// then appends 10i+1, so a step failing in mid commits [10i]. onCommit, when
// non-nil, is the consumer's commit error for each commit.
func runWalk(ctx context.Context, workers, n int, mid func(ctx context.Context, i int) error, onCommit func(walkCommit) error) ([]walkCommit, error) {
	var got []walkCommit
	err := Walk(ctx, workers, 16,
		func(ctx context.Context, yield func(int) bool) {
			for i := 0; i < n && yield(i); i++ {
			}
		},
		func(ctx context.Context) (func(int, *[]int) error, func()) {
			return func(i int, res *[]int) error {
				*res = append(*res, 10*i)
				if mid != nil {
					if err := mid(ctx, i); err != nil {
						return err
					}
				}
				*res = append(*res, 10*i+1)
				return nil
			}, nil
		},
		func(i int, res []int, err error) error {
			c := walkCommit{i, res, err}
			got = append(got, c)
			if onCommit != nil {
				return onCommit(c)
			}
			return nil
		})
	return got, err
}

// walkWorkers reports how many goroutines are inside a walk's worker,
// yielding until there are none for up to five seconds: a worker that has
// signalled the walk's WaitGroup is still listed until the scheduler runs
// it to its exit, but a leaked one never leaves.
func walkWorkers() int {
	deadline := time.Now().Add(5 * time.Second)
	buf := make([]byte, 1<<20)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		n := strings.Count(dump, "core.(*walk[...]).work(")
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// checkPrefix fails unless got commits steps 0..last in order, every one
// whole except last, which holds partial and its error satisfies errors.Is
// against want.
func checkPrefix(t *testing.T, got []walkCommit, last int, partial []int, want error) {
	t.Helper()
	if len(got) != last+1 {
		t.Fatalf("committed %d steps, want steps 0..%d", len(got), last)
	}
	for k, c := range got {
		wantRes, wantErr := fmt.Sprint([]int{10 * k, 10*k + 1}), error(nil)
		if k == last {
			wantRes, wantErr = fmt.Sprint(partial), want
		}
		if c.step != k || fmt.Sprint(c.res) != wantRes || !errors.Is(c.err, wantErr) {
			t.Fatalf("commit %d = step %d %v err %v, want step %d %s err %v", k, c.step, c.res, c.err, k, wantRes, wantErr)
		}
	}
}

var walkWorkerCounts = []int{1, 2, 8}

func TestWalkCommitsEveryStepInOrder(t *testing.T) {
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Step 0 finishes last: it waits for step workers-1.
			last := make(chan struct{})
			got, err := runWalk(context.Background(), workers, 40, func(_ context.Context, i int) error {
				switch {
				case i == 0 && workers > 1:
					<-last
				case i == workers-1 && workers > 1:
					close(last)
				}
				return nil
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPrefix(t, got, 39, []int{390, 391}, nil)
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}

func TestWalkReturnsTheLowestFailure(t *testing.T) {
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// With more than one worker, step 9 fails before step 5 does.
			failed9 := make(chan struct{})
			got, err := runWalk(context.Background(), workers, 40, func(_ context.Context, i int) error {
				switch i {
				case 5:
					if workers > 1 {
						<-failed9
					}
					return errors.New("step 5")
				case 9:
					close(failed9)
					return errors.New("step 9")
				}
				return nil
			}, nil)
			if fmt.Sprint(err) != "step 5" {
				t.Fatalf("err = %v, want step 5's", err)
			}
			if got[len(got)-1].step != 5 {
				t.Fatalf("last commit is step %d, want the failing step 5", got[len(got)-1].step)
			}
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}

func TestWalkCommitsOnlyBeforeTheFailure(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// With more than one worker, step 7 has finished when step 5 fails.
			done7 := make(chan struct{})
			got, err := runWalk(context.Background(), workers, 40, func(_ context.Context, i int) error {
				switch {
				case i == 5:
					if workers > 1 {
						<-done7
					}
					return boom
				case i == 7:
					close(done7)
				}
				return nil
			}, nil)
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			checkPrefix(t, got, 5, []int{50}, boom)
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}

func TestWalkWorkerDeathFailsTheStep(t *testing.T) {
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := runWalk(context.Background(), workers, 40, func(_ context.Context, i int) error {
				if i == 5 {
					runtime.Goexit()
				}
				return nil
			}, nil)
			if !errors.Is(err, ErrWorkerDied) {
				t.Fatalf("err = %v, want %v", err, ErrWorkerDied)
			}
			checkPrefix(t, got, 5, []int{50}, ErrWorkerDied)
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}

func TestWalkCommitErrorStopsTheWalk(t *testing.T) {
	stop := errors.New("stop")
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got, err := runWalk(context.Background(), workers, 40, nil, func(c walkCommit) error {
				if c.step == 5 {
					return stop
				}
				return nil
			})
			if !errors.Is(err, stop) {
				t.Fatalf("err = %v, want %v", err, stop)
			}
			checkPrefix(t, got, 5, []int{50, 51}, nil)
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}

func TestWalkCancelReturnsTheContextError(t *testing.T) {
	for _, workers := range walkWorkerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// Step 5 cancels the walk's caller, then waits for the walk's
			// own context to end.
			got, err := runWalk(ctx, workers, 40, func(ctx context.Context, i int) error {
				if i == 5 {
					cancel()
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			}, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want %v", err, context.Canceled)
			}
			for k, c := range got {
				if c.step != k || c.step > 5 {
					t.Fatalf("commit %d is step %d: not an in-order prefix ending by step 5", k, c.step)
				}
			}
			if left := walkWorkers(); left != 0 {
				t.Fatalf("walk left %d workers behind", left)
			}
		})
	}
}
