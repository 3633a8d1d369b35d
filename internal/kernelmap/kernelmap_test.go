package kernelmap

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/memheatmap/mhm/internal/trace"
)

func mustImage(t *testing.T) *Image {
	t.Helper()
	img, err := NewImage(1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestPaperTextBounds(t *testing.T) {
	if TextSize != 3013284 {
		t.Errorf("TextSize = %d, want 3013284 (paper Fig. 1)", TextSize)
	}
	img := mustImage(t)
	if img.Base != TextBase || img.Size != TextSize {
		t.Errorf("image bounds %#x/%d", img.Base, img.Size)
	}
}

func TestLayoutNonOverlappingAndInBounds(t *testing.T) {
	img := mustImage(t)
	fns := img.Functions()
	if len(fns) < 200 {
		t.Fatalf("only %d functions; expected a kernel-sized symbol table", len(fns))
	}
	var prevEnd uint64
	for i, f := range fns {
		if f.Addr < img.Base || f.Addr+f.Size > img.Base+img.Size {
			t.Fatalf("function %s out of bounds: %#x+%d", f.Name, f.Addr, f.Size)
		}
		if i > 0 && f.Addr < prevEnd {
			t.Fatalf("function %s overlaps previous (addr %#x < prev end %#x)", f.Name, f.Addr, prevEnd)
		}
		if f.Size == 0 {
			t.Fatalf("function %s has zero size", f.Name)
		}
		prevEnd = f.Addr + f.Size
	}
}

func TestHotSpotsInsideFunctions(t *testing.T) {
	img := mustImage(t)
	for _, f := range img.Functions() {
		if len(f.Spots) == 0 {
			t.Fatalf("function %s has no hot spots", f.Name)
		}
		wsum := 0.0
		for _, s := range f.Spots {
			if s.Off >= f.Size {
				t.Fatalf("function %s: hot spot at %d beyond size %d", f.Name, s.Off, f.Size)
			}
			wsum += s.W
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Fatalf("function %s: spot weights sum to %g", f.Name, wsum)
		}
	}
}

func TestLookup(t *testing.T) {
	img := mustImage(t)
	fns := img.Functions()
	for _, f := range []Function{fns[0], fns[len(fns)/2], fns[len(fns)-1]} {
		got, ok := img.Lookup(f.Addr)
		if !ok || got.Name != f.Name {
			t.Errorf("Lookup(%#x) = %v, %v; want %s", f.Addr, got, ok, f.Name)
		}
		got, ok = img.Lookup(f.Addr + f.Size - 1)
		if !ok || got.Name != f.Name {
			t.Errorf("Lookup(last byte of %s) failed", f.Name)
		}
	}
	if _, ok := img.Lookup(img.Base - 1); ok {
		t.Error("Lookup below base succeeded")
	}
	if _, ok := img.Lookup(img.Base + img.Size + 100); ok {
		t.Error("Lookup above end succeeded")
	}
}

func TestImageDeterminism(t *testing.T) {
	a, err := NewImage(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewImage(7)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := a.Functions(), b.Functions()
	if len(fa) != len(fb) {
		t.Fatalf("different function counts: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Name != fb[i].Name || fa[i].Addr != fb[i].Addr || fa[i].Size != fb[i].Size {
			t.Fatalf("function %d differs", i)
		}
	}
	c, err := NewImage(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Functions()) == len(fa) {
		// Counts could coincide; compare layout details too.
		same := true
		for i, f := range c.Functions() {
			if f.Addr != fa[i].Addr || f.Size != fa[i].Size {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical layouts")
		}
	}
}

func TestNewImageSizedRejectsTiny(t *testing.T) {
	if _, err := NewImageSized(1, 0, 100); !errors.Is(err, ErrLayout) {
		t.Errorf("tiny image: %v", err)
	}
}

// serviceNames returns the catalog's service names, sorted.
func serviceNames(img *Image) []string {
	out := make([]string, 0, len(img.services))
	for name := range img.services {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func TestServiceCatalogComplete(t *testing.T) {
	img := mustImage(t)
	wanted := []string{
		SvcSyscallEntry, SvcRead, SvcWrite, SvcOpen, SvcClose, SvcFork,
		SvcExec, SvcExit, SvcWait, SvcPersonality, SvcKill, SvcMmap,
		SvcPipe, SvcSocket, SvcModuleLoad, SvcSchedTick, SvcCtxSwitch,
		SvcIdleLoop, SvcPageFault,
	}
	for _, name := range wanted {
		svc, err := img.Service(name)
		if err != nil {
			t.Errorf("missing service %s: %v", name, err)
			continue
		}
		if svc.FetchesPerInvocation <= 0 {
			t.Errorf("service %s has no fetch budget", name)
		}
		if len(svc.TouchedFunctions()) == 0 {
			t.Errorf("service %s touches no functions", name)
		}
	}
	if len(img.services) != len(wanted) {
		t.Errorf("catalog has %d services, want %d", len(img.services), len(wanted))
	}
	if _, err := img.Service("bogus"); !errors.Is(err, ErrUnknownService) {
		t.Errorf("unknown service: %v", err)
	}
}

func TestEmitConservation(t *testing.T) {
	// Total emitted fetches ≈ FetchesPerInvocation * scale (within the
	// 5% noise plus rounding).
	img := mustImage(t)
	svc, err := img.Service(SvcRead)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, scale := range []float64{1, 0.5, 3.25} {
		events := svc.Emit(rng, 1000, scale, nil)
		var total float64
		for _, e := range events {
			if e.Time != 1000 {
				t.Errorf("event time %d, want 1000", e.Time)
			}
			total += float64(e.Count)
		}
		want := svc.FetchesPerInvocation * scale
		if math.Abs(total-want)/want > 0.10 {
			t.Errorf("scale %g: emitted %g fetches, want ≈%g", scale, total, want)
		}
	}
}

func TestEmitAddressesInsideImage(t *testing.T) {
	img := mustImage(t)
	rng := rand.New(rand.NewSource(4))
	for _, name := range serviceNames(img) {
		svc, err := img.Service(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range svc.Emit(rng, 0, 1, nil) {
			if e.Addr < img.Base || e.Addr >= img.Base+img.Size {
				t.Errorf("service %s emitted out-of-image address %#x", name, e.Addr)
			}
			fn, ok := img.Lookup(e.Addr)
			if !ok {
				t.Errorf("service %s emitted padding address %#x", name, e.Addr)
				continue
			}
			// The address must be one of the function's hot spots.
			found := false
			for _, s := range fn.Spots {
				if fn.Addr+s.Off == e.Addr {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("service %s: address %#x is not a hot spot of %s", name, e.Addr, fn.Name)
			}
		}
	}
}

func TestEmitZeroOrNegativeScale(t *testing.T) {
	img := mustImage(t)
	svc, _ := img.Service(SvcWrite)
	if got := svc.Emit(nil, 0, 0, nil); len(got) != 0 {
		t.Errorf("zero scale emitted %d events", len(got))
	}
	if got := svc.Emit(nil, 0, -1, nil); len(got) != 0 {
		t.Errorf("negative scale emitted %d events", len(got))
	}
}

func TestEmitNilRngIsDeterministic(t *testing.T) {
	img := mustImage(t)
	svc, _ := img.Service(SvcOpen)
	a := svc.Emit(nil, 5, 2, nil)
	b := svc.Emit(nil, 5, 2, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length with nil rng")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDistinctServicesTouchDistinctCells(t *testing.T) {
	// The detector relies on services having different footprints: the
	// fetch-weighted cell profiles of read and fork must differ
	// substantially at the paper's 2 KB granularity.
	img := mustImage(t)
	profile := func(name string) map[uint64]float64 {
		svc, err := img.Service(name)
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint64]float64{}
		var total float64
		for _, e := range svc.Emit(nil, 0, 1, nil) {
			cell := (e.Addr - img.Base) / 2048
			out[cell] += float64(e.Count)
			total += float64(e.Count)
		}
		for k := range out {
			out[k] /= total
		}
		return out
	}
	read := profile(SvcRead)
	fork := profile(SvcFork)
	overlap := 0.0
	for cell, w := range read {
		if fw, ok := fork[cell]; ok {
			overlap += math.Min(w, fw)
		}
	}
	if overlap > 0.5 {
		t.Errorf("read/fork cell overlap %.2f; footprints too similar for detection", overlap)
	}
}

func TestEmitAppendsToDst(t *testing.T) {
	img := mustImage(t)
	svc, _ := img.Service(SvcClose)
	pre := []trace.Access{{Time: 1, Addr: 2, Count: 3}}
	out := svc.Emit(nil, 0, 1, pre)
	if len(out) <= 1 || out[0] != pre[0] {
		t.Error("Emit did not append to dst")
	}
}

func TestEmitScaleProportionalProperty(t *testing.T) {
	// Property (noise-free): doubling scale doubles every burst within
	// rounding.
	img := mustImage(t)
	f := func(seedIdx uint8) bool {
		names := serviceNames(img)
		svc, err := img.Service(names[int(seedIdx)%len(names)])
		if err != nil {
			return false
		}
		one := svc.Emit(nil, 0, 1, nil)
		two := svc.Emit(nil, 0, 2, nil)
		if len(two) < len(one) {
			return false
		}
		var t1, t2 float64
		for _, e := range one {
			t1 += float64(e.Count)
		}
		for _, e := range two {
			t2 += float64(e.Count)
		}
		return math.Abs(t2-2*t1) <= float64(len(one)+len(two))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRegisterModuleService(t *testing.T) {
	img, err := NewImage(3)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := img.RegisterModuleService("evil_hook", 0x1000, 40, 900, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The catalog resolves it.
	got, err := img.Service("evil_hook")
	if err != nil || got != svc {
		t.Fatalf("catalog lookup: %v", err)
	}
	// Its emission lands entirely inside the module area, outside .text.
	for _, a := range svc.Emit(nil, 0, 1, nil) {
		if a.Addr < ModuleBase || a.Addr >= ModuleBase+ModuleSize {
			t.Errorf("module service emitted %#x outside the module area", a.Addr)
		}
		if a.Addr >= img.Base && a.Addr < img.Base+img.Size {
			t.Errorf("module service emitted %#x inside .text", a.Addr)
		}
	}
	// Duplicate registration is rejected.
	if _, err := img.RegisterModuleService("evil_hook", 0x8000, 40, 900, 7); !errors.Is(err, ErrLayout) {
		t.Errorf("duplicate: %v", err)
	}
	// Invalid placements rejected.
	if _, err := img.RegisterModuleService("", 0, 1, 1, 1); !errors.Is(err, ErrLayout) {
		t.Errorf("empty name: %v", err)
	}
	if _, err := img.RegisterModuleService("too_far", ModuleSize-16, 1, 1, 1); !errors.Is(err, ErrLayout) {
		t.Errorf("overflow: %v", err)
	}
}
