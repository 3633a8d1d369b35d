package securecore

import (
	"errors"
	"testing"

	"github.com/memheatmap/mhm/internal/cache"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/rtos"
	"github.com/memheatmap/mhm/internal/trace"
	"github.com/memheatmap/mhm/internal/workload"
)

// twoCoreTasks partitions the paper task set across two cores:
// FFT + sha on core 0, bitcount + basicmath on core 1.
func twoCoreTasks(t *testing.T, img *kernelmap.Image) [][]*rtos.Task {
	t.Helper()
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*rtos.Task{}
	for _, task := range tasks {
		byName[task.Name] = task
	}
	return [][]*rtos.Task{
		{byName["FFT"], byName["sha"]},
		{byName["bitcount"], byName["basicmath"]},
	}
}

func TestSMPSessionProducesMergedMHMs(t *testing.T) {
	img := testImage(t)
	s, err := NewSMPSession(img, twoCoreTasks(t, img), SessionConfig{NoiseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	maps, err := s.Run(300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 30 {
		t.Fatalf("maps = %d, want 30", len(maps))
	}
	for i, m := range maps {
		if m.Start != int64(i)*10_000 {
			t.Errorf("interval %d starts at %d", i, m.Start)
		}
		if m.Total() == 0 {
			t.Errorf("interval %d empty", i)
		}
	}
	if s.smp.Device().Stats().Overruns != 0 {
		t.Errorf("overruns: %d", s.smp.Device().Stats().Overruns)
	}
}

func TestSMPAggregatesBothCores(t *testing.T) {
	// Each interval of the 2-core run must carry roughly the kernel
	// activity of both partitions: its traffic exceeds what either
	// single-core partition produces alone.
	img := testImage(t)
	parts := twoCoreTasks(t, img)

	smp, err := NewSMPSession(img, parts, SessionConfig{NoiseSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := smp.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}

	soloTotals := make([][]uint64, 2)
	for c := 0; c < 2; c++ {
		solo, err := NewSession(img, parts[c], SessionConfig{NoiseSeed: 2})
		if err != nil {
			t.Fatal(err)
		}
		maps, err := solo.Run(200_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range maps {
			soloTotals[c] = append(soloTotals[c], m.Total())
		}
	}
	for i := 2; i < len(merged); i++ {
		mt := merged[i].Total()
		if mt <= soloTotals[0][i] || mt <= soloTotals[1][i] {
			t.Errorf("interval %d: merged %d not above solo cores %d/%d",
				i, mt, soloTotals[0][i], soloTotals[1][i])
		}
	}
}

func TestSMPSessionValidation(t *testing.T) {
	img := testImage(t)
	if _, err := NewSMPSession(img, nil, SessionConfig{}); !errors.Is(err, ErrMonitor) {
		t.Errorf("no cores: %v", err)
	}
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	dup := [][]*rtos.Task{{tasks[0]}, {tasks[0]}}
	if _, err := NewSMPSession(img, dup, SessionConfig{}); !errors.Is(err, ErrMonitor) {
		t.Errorf("duplicated task: %v", err)
	}
}

func TestSMPDeterministic(t *testing.T) {
	img := testImage(t)
	run := func() []uint64 {
		s, err := NewSMPSession(img, twoCoreTasks(t, img), SessionConfig{NoiseSeed: 5})
		if err != nil {
			t.Fatal(err)
		}
		maps, err := s.Run(150_000)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, len(maps))
		for i, m := range maps {
			out[i] = m.Total()
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interval %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCachedSessionThinsTraffic(t *testing.T) {
	// With an L1 model in front of the Memometer (§5.5), only misses are
	// visible: traffic must drop dramatically but not to zero.
	img := testImage(t)
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSession(img, tasks, SessionConfig{NoiseSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fullMaps, err := full.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	tasks2, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewSession(img, tasks2, SessionConfig{
		NoiseSeed: 3,
		Cache:     &cache.Config{SizeBytes: 32 * 1024, LineBytes: 32, Ways: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedMaps, err := cached.Run(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cachedMaps) != len(fullMaps) {
		t.Fatalf("interval counts differ: %d vs %d", len(cachedMaps), len(fullMaps))
	}
	var fullTotal, cachedTotal uint64
	for i := range fullMaps {
		fullTotal += fullMaps[i].Total()
		cachedTotal += cachedMaps[i].Total()
	}
	if cachedTotal == 0 {
		t.Fatal("cache filtered everything; no signal left")
	}
	if float64(cachedTotal) > 0.5*float64(fullTotal) {
		t.Errorf("cache filtered too little: %d of %d visible", cachedTotal, fullTotal)
	}
	// Every interval must still complete even when fully hit.
	for i, m := range cachedMaps {
		if m.Start != int64(i)*10_000 {
			t.Errorf("cached interval %d starts at %d", i, m.Start)
		}
	}
	if cached.Monitor.dev.Stats().Overruns != 0 {
		t.Errorf("overruns with cache: %d", cached.Monitor.dev.Stats().Overruns)
	}
}

func TestPortMonitorValidation(t *testing.T) {
	img := testImage(t)
	if _, err := NewPortMonitor(img, 1, nil); !errors.Is(err, ErrMonitor) {
		t.Errorf("nil sink: %v", err)
	}
	if _, err := NewPortMonitor(nil, 1, func(a trace.Access) error { return nil }); err == nil {
		t.Error("nil image accepted")
	}
}

func TestMultiSessionDevicesAccessor(t *testing.T) {
	img := testImage(t)
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	regions := []heatmap.Def{
		{AddrBase: img.Base, Size: img.Size, Gran: 2048},
		{AddrBase: 0xBF000000, Size: 1 << 20, Gran: 4096},
	}
	s, err := NewMultiSession(img, tasks, SessionConfig{NoiseSeed: 12}, regions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(30_000); err != nil {
		t.Fatal(err)
	}
	devs := s.devices
	if len(devs) != 2 {
		t.Fatalf("devices = %d", len(devs))
	}
	if devs[0].Stats().Accepted == 0 {
		t.Error(".text device saw no traffic")
	}
	if devs[1].Stats().Accepted != 0 {
		t.Error("module device saw traffic on a clean run")
	}
}
