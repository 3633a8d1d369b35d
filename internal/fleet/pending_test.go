package fleet

import (
	"errors"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
)

// TestRegistryRejectsStackedSwap pins the single-pending-swap contract:
// scheduling a second, different boundary while one is pending returns
// ErrSwapPending and leaves the original schedule intact.
func TestRegistryRejectsStackedSwap(t *testing.T) {
	base, alt := testModels(t)
	r, err := NewRegistry(2, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(0, 5, alt); err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(0, 9, base); !errors.Is(err, ErrSwapPending) {
		t.Fatalf("stacked swap: err = %v, want ErrSwapPending", err)
	}
	// Same boundary still coalesces deterministically.
	if err := r.SwapAt(0, 5, alt); err != nil {
		t.Fatalf("same-boundary replace: %v", err)
	}
	// The original boundary fires; the rejected one never does.
	if m := r.ModelFor(0, 4); m.version != 1 {
		t.Fatalf("interval 4 under version %d", m.version)
	}
	if m := r.ModelFor(0, 5); m.version != 2 {
		t.Fatalf("interval 5 under version %d", m.version)
	}
	// Pending slot drained: a new boundary schedules cleanly now.
	if err := r.SwapAt(0, 9, base); err != nil {
		t.Fatalf("post-drain schedule: %v", err)
	}
}

// TestRegistrySwapAtCoalesce pins latest-wins semantics: the newest
// scheduled model replaces the pending one, whatever its boundary.
func TestRegistrySwapAtCoalesce(t *testing.T) {
	base, alt := testModels(t)
	r, err := NewRegistry(1, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAt(0, 10, alt); err != nil {
		t.Fatal(err)
	}
	third, err := NewModel(fixtureDetector(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAtCoalesce(0, 4, third); err != nil {
		t.Fatal(err)
	}
	// The coalesced boundary fires with the newest model; the replaced
	// schedule is gone.
	if m := r.ModelFor(0, 4); m.version != 3 {
		t.Fatalf("interval 4 under version %d, want 3", m.version)
	}
	if m := r.ModelFor(0, 10); m.version != 3 {
		t.Fatalf("interval 10 under version %d, want 3", m.version)
	}
}

// TestRegistrySwapAllAtCoalesce checks the fleet-wide latest-wins path
// replaces strict per-stream schedules on every stream.
func TestRegistrySwapAllAtCoalesce(t *testing.T) {
	base, alt := testModels(t)
	r, err := NewRegistry(3, base)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := r.SwapAt(s, 6, alt); err != nil {
			t.Fatal(err)
		}
	}
	third, err := NewModel(fixtureDetector(t), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SwapAllAtCoalesce(3, third); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if m := r.ModelFor(s, 3); m.version != 3 {
			t.Fatalf("stream %d interval 3 under version %d", s, m.version)
		}
	}
}

// TestRegistryConcurrentStackedSwaps hammers one stream's slot from
// many schedulers while the owner advances; run under -race this pins
// that rejected stacking is just an error, never a data race, and the
// owner always observes a fully-applied model.
func TestRegistryConcurrentStackedSwaps(t *testing.T) {
	base, alt := testModels(t)
	r, err := NewRegistry(1, base)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for at := 0; ; at++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				if g%2 == 0 {
					err = r.SwapAt(0, at%64, alt)
				} else {
					err = r.SwapAtCoalesce(0, at%64, alt)
				}
				if err != nil && !errors.Is(err, ErrSwapPending) {
					panic(err)
				}
			}
		}(g)
	}
	for idx := 0; idx < 2000; idx++ {
		if m := r.ModelFor(0, idx); m == nil {
			t.Fatalf("interval %d resolved nil model", idx)
		}
	}
	close(stop)
	wg.Wait()
}

func fixtureDetector(t *testing.T) *core.Detector {
	t.Helper()
	_, det := fixture(t)
	return det
}
