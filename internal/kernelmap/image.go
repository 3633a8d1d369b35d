// Package kernelmap models the monitored kernel's .text segment: a
// synthetic symbol layout grouped into subsystems, plus a catalog of
// kernel *services* whose execution emits instruction-fetch bursts into
// the monitored region. It replaces the embedded Linux 3.4 image the
// paper monitored; what the detector needs from a kernel is only that
// each service touches a characteristic, stable set of addresses, which
// this model provides deterministically.
package kernelmap

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Paper .text bounds: 0xC0008000 .. 0xC02E7AA4 (3,013,284 bytes).
const (
	// TextBase is the paper's kernel .text base address.
	TextBase = uint64(0xC0008000)
	// TextEnd is one past the last monitored byte.
	TextEnd = uint64(0xC02E7AA4)
	// TextSize is the monitored region size in bytes.
	TextSize = TextEnd - TextBase
)

// ErrLayout wraps image construction failures.
var ErrLayout = errors.New("kernelmap: invalid layout")

// ErrUnknownService is returned when a service name is not in the image.
var ErrUnknownService = errors.New("kernelmap: unknown service")

// Subsystem names. Each gets a contiguous span of .text, mirroring how a
// real kernel's link order clusters related code.
const (
	SubEntry   = "entry"   // syscall/exception entry and exit
	SubSched   = "sched"   // scheduler core
	SubTimer   = "timer"   // timer and tick handling
	SubIRQ     = "irq"     // interrupt dispatch
	SubFS      = "fs"      // VFS and file I/O
	SubMM      = "mm"      // memory management
	SubProc    = "proc"    // process lifecycle (fork/exec/exit/wait)
	SubIPC     = "ipc"     // pipes, signals
	SubNet     = "net"     // network stack
	SubCrypto  = "crypto"  // kernel crypto
	SubModule  = "module"  // module loader
	SubLib     = "lib"     // kernel library routines (copy_to_user, etc.)
	SubDrivers = "drivers" // device drivers
	SubIdle    = "idle"    // cpu idle loop
)

// subsystemShares allocates fractions of .text to subsystems; they
// roughly track a small embedded kernel's layout and must sum to 1.
var subsystemShares = []struct {
	name  string
	share float64
}{
	{SubEntry, 0.02},
	{SubSched, 0.06},
	{SubTimer, 0.03},
	{SubIRQ, 0.03},
	{SubFS, 0.18},
	{SubMM, 0.12},
	{SubProc, 0.07},
	{SubIPC, 0.05},
	{SubNet, 0.16},
	{SubCrypto, 0.04},
	{SubModule, 0.04},
	{SubLib, 0.08},
	{SubDrivers, 0.11},
	{SubIdle, 0.01},
}

// HotSpot is a high-fetch-count location inside a function (a loop body);
// burst emission concentrates on hot spots, which is what instruction
// fetch histograms of real code look like.
type HotSpot struct {
	// Off is the byte offset of the spot within the function.
	Off uint64
	// W is the spot's share of the function's fetches; a function's spot
	// weights sum to 1.
	W float64
}

// Function is one kernel symbol.
type Function struct {
	Name      string
	Subsystem string
	Addr      uint64
	Size      uint64
	Spots     []HotSpot
}

// Image is the synthetic kernel text layout plus its service catalog.
type Image struct {
	Base, Size uint64
	funcs      []Function           // sorted by Addr
	byName     map[string]*Function // symbol lookup
	bySub      map[string][]*Function
	services   map[string]*Service
	seed       int64
}

// NewImage deterministically generates the synthetic kernel from a seed,
// using the paper's .text bounds.
func NewImage(seed int64) (*Image, error) {
	return NewImageSized(seed, TextBase, TextSize)
}

// NewImageSized generates an image over an arbitrary region, which keeps
// tests fast and lets benchmarks explore other region sizes.
func NewImageSized(seed int64, base, size uint64) (*Image, error) {
	if size < 1<<12 {
		return nil, fmt.Errorf("kernelmap: region size %d too small: %w", size, ErrLayout)
	}
	img := &Image{
		Base:     base,
		Size:     size,
		byName:   make(map[string]*Function),
		bySub:    make(map[string][]*Function),
		services: make(map[string]*Service),
		seed:     seed,
	}
	rng := rand.New(rand.NewSource(seed))

	addr := base
	end := base + size
	for _, ss := range subsystemShares {
		spanEnd := addr + uint64(float64(size)*ss.share)
		if spanEnd > end {
			spanEnd = end
		}
		if err := img.fillSubsystem(rng, ss.name, addr, spanEnd); err != nil {
			return nil, err
		}
		addr = spanEnd
	}
	// Any rounding remainder becomes padding (alignment/linker fill),
	// which real images have too.

	sort.Slice(img.funcs, func(i, j int) bool { return img.funcs[i].Addr < img.funcs[j].Addr })
	for i := range img.funcs {
		f := &img.funcs[i]
		img.byName[f.Name] = f
		img.bySub[f.Subsystem] = append(img.bySub[f.Subsystem], f)
	}
	if err := img.buildServices(rng); err != nil {
		return nil, err
	}
	return img, nil
}

// fillSubsystem packs the span [lo, hi) with generated functions.
func (img *Image) fillSubsystem(rng *rand.Rand, sub string, lo, hi uint64) error {
	if hi <= lo {
		return fmt.Errorf("kernelmap: subsystem %s span empty: %w", sub, ErrLayout)
	}
	addr := lo
	idx := 0
	for addr < hi {
		// Function sizes: log-uniform between 64 B and 8 KB, a rough
		// match for kernel symbol size distributions.
		sz := uint64(64) << rng.Intn(8) // 64..8192
		sz += uint64(rng.Intn(64)) * 4  // jitter, word aligned
		if addr+sz > hi {
			sz = hi - addr
		}
		if sz < 16 {
			break // tail too small for a function; leave as padding
		}
		f := Function{
			Name:      fmt.Sprintf("%s_fn_%04d", sub, idx),
			Subsystem: sub,
			Addr:      addr,
			Size:      sz,
			Spots:     genHotSpots(rng, sz),
		}
		img.funcs = append(img.funcs, f)
		addr += sz
		idx++
	}
	return nil
}

// genHotSpots places 1-4 loop locations in a function of the given size.
func genHotSpots(rng *rand.Rand, size uint64) []HotSpot {
	n := 1 + rng.Intn(4)
	spots := make([]HotSpot, n)
	total := 0.0
	for i := range spots {
		off := uint64(rng.Int63n(int64(size)))
		w := 0.2 + rng.Float64()
		spots[i] = HotSpot{Off: off, W: w}
		total += w
	}
	for i := range spots {
		spots[i].W /= total
	}
	return spots
}

// Functions returns the symbols sorted by address.
func (img *Image) Functions() []Function {
	out := make([]Function, len(img.funcs))
	copy(out, img.funcs)
	return out
}

// Lookup returns the function containing addr, or false if addr falls in
// padding or outside the image.
func (img *Image) Lookup(addr uint64) (*Function, bool) {
	i := sort.Search(len(img.funcs), func(i int) bool {
		return img.funcs[i].Addr+img.funcs[i].Size > addr
	})
	if i == len(img.funcs) {
		return nil, false
	}
	f := &img.funcs[i]
	if addr < f.Addr {
		return nil, false
	}
	return f, true
}

// pick returns n deterministic representative functions from a
// subsystem, spread across its span.
func (img *Image) pick(sub string, n int) ([]*Function, error) {
	fns := img.bySub[sub]
	if len(fns) == 0 {
		return nil, fmt.Errorf("kernelmap: subsystem %s has no functions: %w", sub, ErrLayout)
	}
	if n > len(fns) {
		n = len(fns)
	}
	out := make([]*Function, n)
	for i := 0; i < n; i++ {
		out[i] = fns[i*len(fns)/n]
	}
	return out, nil
}
