package memometer

import (
	"errors"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
)

func smpCfg() Config {
	return Config{
		Region:         heatmap.Def{AddrBase: 0x1000, Size: 0x1000, Gran: 0x100},
		IntervalMicros: 1000,
	}
}

func TestNewSMPValidation(t *testing.T) {
	if _, err := NewSMP(smpCfg(), 0, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("zero ports: %v", err)
	}
	if _, err := NewSMP(Config{}, 2, nil); !errors.Is(err, heatmap.ErrConfig) {
		t.Errorf("bad region: %v", err)
	}
	s, err := NewSMP(smpCfg(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Port(2); !errors.Is(err, ErrPort) {
		t.Errorf("out-of-range port: %v", err)
	}
	if _, err := s.Port(-1); !errors.Is(err, ErrPort) {
		t.Errorf("negative port: %v", err)
	}
}

func TestMergePreservesGlobalTimeOrder(t *testing.T) {
	// Two ports with interleaved timestamps; the device must never see
	// time going backwards (it would error), and all counts must land.
	var maps []*heatmap.HeatMap
	s, err := NewSMP(smpCfg(), 2, func(hm *heatmap.HeatMap) error {
		maps = append(maps, hm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := s.Port(0)
	p1, _ := s.Port(1)
	// Port 0 leads, port 1 lags: events release only at the lagging
	// port's watermark.
	if err := p0.SnoopBurst(100, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := p0.SnoopBurst(900, 0x1100, 2); err != nil {
		t.Fatal(err)
	}
	if err := p1.SnoopBurst(50, 0x1200, 4); err != nil {
		t.Fatal(err)
	}
	if err := p1.SnoopBurst(950, 0x1300, 8); err != nil {
		t.Fatal(err)
	}
	// Cross the boundary on both ports.
	if err := p0.SnoopBurst(1100, 0x1000, 16); err != nil {
		t.Fatal(err)
	}
	if err := p1.SnoopBurst(1200, 0x1000, 32); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(2000); err != nil {
		t.Fatal(err)
	}
	if len(maps) != 2 {
		t.Fatalf("maps = %d, want 2", len(maps))
	}
	first, second := maps[0], maps[1]
	if first.Total() != 1+2+4+8 {
		t.Errorf("first interval total = %d, want 15", first.Total())
	}
	if second.Total() != 16+32 {
		t.Errorf("second interval total = %d, want 48", second.Total())
	}
	if s.dev.Stats().Overruns != 0 {
		t.Errorf("overruns: %d", s.dev.Stats().Overruns)
	}
}

func TestLaggingPortStallsRelease(t *testing.T) {
	delivered := 0
	s, err := NewSMP(smpCfg(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := s.Port(0)
	p1, _ := s.Port(1)
	if err := p0.SnoopBurst(500, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	// Port 1 has not advanced past 0: nothing may be delivered yet.
	if got := s.dev.Stats().Snooped; got != 0 {
		t.Errorf("delivered %d events before watermark", got)
	}
	// Port 1 moves forward with an out-of-region fetch: the buffered
	// event releases.
	if err := p1.SnoopBurst(600, 0x0, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.dev.Stats().Snooped; got != 1 {
		t.Errorf("delivered %d events after watermark, want 1", got)
	}
	_ = delivered
}

func TestClosedPortDoesNotStall(t *testing.T) {
	s, err := NewSMP(smpCfg(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := s.Port(0)
	p1, _ := s.Port(1)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p0.SnoopBurst(100, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.dev.Stats().Snooped; got != 1 {
		t.Errorf("closed port stalled delivery: %d", got)
	}
	// Closed port rejects traffic.
	if err := p1.SnoopBurst(200, 0x1000, 1); !errors.Is(err, ErrPort) {
		t.Errorf("closed port accepted snoop: %v", err)
	}
	// Double close is idempotent.
	if err := p1.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPortTimeMonotonicity(t *testing.T) {
	s, err := NewSMP(smpCfg(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.Port(0)
	if err := p.SnoopBurst(500, 0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.SnoopBurst(400, 0x1000, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("backwards snoop: %v", err)
	}
}

func TestSMPEquivalentToSingleDeviceForOnePort(t *testing.T) {
	// A 1-port SMP must produce exactly what a plain Device produces.
	var smpMaps []*heatmap.HeatMap
	s, err := NewSMP(smpCfg(), 1, func(hm *heatmap.HeatMap) error {
		smpMaps = append(smpMaps, hm)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := New()
	if err := plain.Configure(smpCfg()); err != nil {
		t.Fatal(err)
	}
	p, _ := s.Port(0)
	events := []struct {
		t     int64
		addr  uint64
		count uint32
	}{
		{100, 0x1000, 3}, {600, 0x1800, 5}, {1500, 0x1000, 7}, {2900, 0x1F00, 11},
	}
	var plainMaps []*heatmap.HeatMap
	for _, e := range events {
		if err := p.SnoopBurst(e.t, e.addr, e.count); err != nil {
			t.Fatal(err)
		}
		if err := plain.SnoopBurst(e.t, e.addr, e.count); err != nil {
			t.Fatal(err)
		}
		for plain.HasPending() {
			hm, err := plain.Collect()
			if err != nil {
				t.Fatal(err)
			}
			plainMaps = append(plainMaps, hm)
		}
	}
	if err := s.Finish(3000); err != nil {
		t.Fatal(err)
	}
	if err := plain.Tick(3000); err != nil {
		t.Fatal(err)
	}
	for plain.HasPending() {
		hm, err := plain.Collect()
		if err != nil {
			t.Fatal(err)
		}
		plainMaps = append(plainMaps, hm)
	}
	if len(smpMaps) != len(plainMaps) {
		t.Fatalf("SMP %d maps vs plain %d", len(smpMaps), len(plainMaps))
	}
	for i := range smpMaps {
		if d, _ := smpMaps[i].L1Distance(plainMaps[i]); d != 0 {
			t.Errorf("interval %d differs between SMP and plain device", i)
		}
	}
}
