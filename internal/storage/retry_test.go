package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, false},
		{"not-found", ErrNotFound, false},
		{"wrapped-not-found", fmt.Errorf("layer: %w", ErrNotFound), false},
		{"transient", Transient(errors.New("boom")), true},
		{"wrapped-transient", fmt.Errorf("layer: %w", Transient(errors.New("boom"))), true},
		{"bare-sentinel", ErrTransient, true},
		{"plain", errors.New("boom"), false},
		// A transient marker wrapping a context error: the context error
		// wins — the caller gave up, retrying is never allowed.
		{"transient-canceled", Transient(context.Canceled), false},
	}
	for _, tc := range cases {
		if got := IsRetryable(tc.err); got != tc.want {
			t.Errorf("IsRetryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTransientPreservesCause(t *testing.T) {
	cause := errors.New("root cause")
	err := fmt.Errorf("wrapper: %w", Transient(cause))
	if !errors.Is(err, cause) {
		t.Fatal("Transient must keep the cause visible to errors.Is")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) must be nil")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 7}
	for attempt := 1; attempt <= 12; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, d1, d2)
		}
		// Jitter keeps the delay in [cap/2, cap) of the exponential step.
		step := 10 * time.Millisecond << (attempt - 1)
		if step > 80*time.Millisecond || step <= 0 {
			step = 80 * time.Millisecond
		}
		if d1 < step/2 || d1 >= step {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, step/2, step)
		}
	}
	if d := (Backoff{Seed: 1}).Delay(1); d <= 0 || d >= 10*time.Millisecond {
		t.Fatalf("default backoff delay = %v, want in (0, 10ms)", d)
	}
	// Different seeds de-synchronize.
	if (Backoff{Seed: 1}).Delay(3) == (Backoff{Seed: 2}).Delay(3) {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	if err := mem.Put(ctx, "k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// Every 2nd read-path op fails transiently: each logical Get needs one
	// retry, and the Retry layer must hide all of it.
	flaky := NewFlaky(mem, 2, Transient(errors.New("injected")))
	r := NewRetry(flaky, RetryOptions{Attempts: 3, Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}})
	for i := 0; i < 8; i++ {
		data, err := r.Get(ctx, "k")
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(data, []byte("payload")) {
			t.Fatalf("get %d: wrong bytes %q", i, data)
		}
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	if st.Exhausted != 0 {
		t.Fatalf("exhausted = %d, want 0", st.Exhausted)
	}
}

func TestRetryNeverRetriesNotFound(t *testing.T) {
	ctx := context.Background()
	counting := NewCounting(NewMemory())
	r := NewRetry(counting, RetryOptions{Attempts: 5})
	if _, err := r.Get(ctx, "missing"); !IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
	if gets := counting.Snapshot().Gets; gets != 1 {
		t.Fatalf("missing key cost %d attempts, want 1 (never retry a stable fact)", gets)
	}
}

func TestRetryExhaustionPreservesClassification(t *testing.T) {
	ctx := context.Background()
	faulty := NewFaulty(NewMemory(), FaultConfig{GetErrRate: 1})
	r := NewRetry(faulty, RetryOptions{Attempts: 3, Backoff: Backoff{Base: time.Microsecond, Max: time.Microsecond}})
	_, err := r.Get(ctx, "k")
	if err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	if !IsRetryable(err) {
		t.Fatal("exhaustion error must keep the transient marker for outer layers")
	}
	if st := r.Stats(); st.Exhausted != 1 || st.Attempts != 3 {
		t.Fatalf("stats = %+v, want 1 exhausted over 3 attempts", st)
	}
}

func TestRetryOpTimeoutResolvesStalls(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	if err := mem.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// One stall (MaxFaults 1): the first attempt black-holes until the
	// per-op timeout, the second passes.
	faulty := NewFaulty(mem, FaultConfig{StallRate: 1, MaxFaults: 1})
	r := NewRetry(faulty, RetryOptions{
		Attempts:  3,
		OpTimeout: 20 * time.Millisecond,
		Backoff:   Backoff{Base: time.Millisecond, Max: time.Millisecond},
	})
	start := time.Now()
	data, err := r.Get(ctx, "k")
	if err != nil {
		t.Fatalf("stall not recovered: %v", err)
	}
	if string(data) != "v" {
		t.Fatalf("bytes = %q", data)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("recovered in %v, faster than the stall timeout — stall never happened", elapsed)
	}
	if r.Stats().Retries != 1 {
		t.Fatalf("retries = %d, want 1", r.Stats().Retries)
	}
}

func TestRetryHonorsCallerDeadline(t *testing.T) {
	// The caller's own deadline expiring must not be retried, even though
	// the failure is a DeadlineExceeded.
	faulty := NewFaulty(NewMemory(), FaultConfig{StallRate: 1})
	r := NewRetry(faulty, RetryOptions{Attempts: 5})
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := r.Get(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want caller deadline", err)
	}
	if st := r.Stats(); st.Attempts != 1 {
		t.Fatalf("caller deadline cost %d attempts, want 1 (never retry on a dead caller's behalf)", st.Attempts)
	}
}

// firstGet closes entered when the first Get reaches it.
type firstGet struct {
	Provider
	once    sync.Once
	entered chan struct{}
}

func (f *firstGet) Get(ctx context.Context, key string) ([]byte, error) {
	f.once.Do(func() { close(f.entered) })
	return f.Provider.Get(ctx, key)
}

// TestRetryCancelDuringBackoffReturnsPromptly: a cancel while the first
// attempt fails or while Retry waits out its 10 s backoff ends the call with
// the caller's context error. Were the cancel ignored, the second attempt
// would run and the call would fail on the injected fault instead.
func TestRetryCancelDuringBackoffReturnsPromptly(t *testing.T) {
	origin := &firstGet{Provider: NewFaulty(NewMemory(), FaultConfig{GetErrRate: 1}), entered: make(chan struct{})}
	r := NewRetry(origin, RetryOptions{
		Attempts: 2,
		Backoff:  Backoff{Base: 10 * time.Second, Max: 10 * time.Second},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := r.Get(ctx, "k")
		done <- err
	}()
	<-origin.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestRetryBudgetDegradesToFailFast(t *testing.T) {
	ctx := context.Background()
	faulty := NewFaulty(NewMemory(), FaultConfig{GetErrRate: 1})
	r := NewRetry(faulty, RetryOptions{
		Attempts: 4, Budget: 2,
		Backoff: Backoff{Base: time.Microsecond, Max: time.Microsecond},
	})
	// First op burns the 2-retry budget (3 attempts, then exhausted at 4).
	// Later ops fail on their first attempt without multiplying traffic.
	for i := 0; i < 3; i++ {
		if _, err := r.Get(ctx, "k"); err == nil {
			t.Fatalf("get %d: want error", i)
		}
	}
	st := r.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want exactly the budget of 2", st.Retries)
	}
	if st.BudgetDenied == 0 {
		t.Fatal("no budget denials recorded")
	}
}

// TestSingleflightRetryNoFanout is the resilience layer's core ordering
// contract under -race: with Retry stacked below the LRU's singleflight, one
// transient fault on a hot chunk is recovered once by the flight leader —
// none of the coalesced waiters observe an error, and the origin sees
// exactly two Gets (the fault and the retry), never N recovery attempts.
func TestSingleflightRetryNoFanout(t *testing.T) {
	ctx := context.Background()
	mem := NewMemory()
	payload := bytes.Repeat([]byte{0x5A}, 1<<16)
	if err := mem.Put(ctx, "hot", payload); err != nil {
		t.Fatal(err)
	}
	faulty := NewFaulty(mem, FaultConfig{Seed: 42, GetErrRate: 1, MaxFaults: 1})
	counting := NewCounting(faulty)
	retry := NewRetry(counting, RetryOptions{Attempts: 4, Backoff: Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}})
	cache := NewLRU(retry, 1<<20)

	const waiters = 24
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	gate := make(chan struct{})
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			data, err := cache.Get(ctx, "hot")
			if err == nil && !bytes.Equal(data, payload) {
				err = errors.New("corrupted bytes")
			}
			errs[i] = err
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d saw the fault through singleflight+retry: %v", i, err)
		}
	}
	if gets := counting.Snapshot().Gets; gets != 2 {
		t.Fatalf("origin saw %d Gets, want exactly 2 (fault + one shared retry)", gets)
	}
	stats := cache.Stats()
	if stats.Retries != 1 || stats.Faults != 1 {
		t.Fatalf("cache stats = %d retries / %d faults, want 1/1 (chain-walk accounting)", stats.Retries, stats.Faults)
	}
}

// TestRetryClassificationSurvivesWrappers asserts the package's error
// contract end to end: transient and not-found classifications pass through
// Counting unchanged, so a Retry stacked anywhere above still classifies
// correctly.
func TestRetryClassificationSurvivesWrappers(t *testing.T) {
	ctx := context.Background()
	faulty := NewFaulty(NewMemory(), FaultConfig{GetErrRate: 1, MaxFaults: 1})
	chain := NewCounting(faulty)
	_, err := chain.Get(ctx, "k")
	if !IsRetryable(err) {
		t.Fatalf("transient marker lost through Counting: %v", err)
	}
	_, err = chain.Get(ctx, "k") // fault budget spent; now a clean miss
	if !IsNotFound(err) || IsRetryable(err) {
		t.Fatalf("not-found misclassified through the chain: %v", err)
	}
}
