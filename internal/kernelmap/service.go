package kernelmap

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/memheatmap/mhm/internal/trace"
)

// Service names used by the workload and attack models. Every name here
// exists in any image produced by NewImage/NewImageSized.
const (
	SvcSyscallEntry = "syscall_entry" // common entry/exit path
	SvcRead         = "sys_read"
	SvcWrite        = "sys_write"
	SvcOpen         = "sys_open"
	SvcClose        = "sys_close"
	SvcFork         = "sys_fork"
	SvcExec         = "sys_execve"
	SvcExit         = "sys_exit"
	SvcWait         = "sys_wait"
	SvcPersonality  = "sys_personality" // the ASLR-disable shellcode path
	SvcKill         = "sys_kill"
	SvcMmap         = "sys_mmap"
	SvcPipe         = "sys_pipe"
	SvcSocket       = "sys_socket"
	SvcModuleLoad   = "init_module" // insmod path: loader + relocation
	SvcSchedTick    = "sched_tick"  // timer interrupt + scheduler
	SvcCtxSwitch    = "context_switch"
	SvcIdleLoop     = "cpu_idle"
	SvcPageFault    = "page_fault"
)

// part is one function's contribution to a service.
type part struct {
	fn *Function
	w  float64 // share of the service's fetches; parts sum to 1
}

// Service is a kernel operation: a weighted set of functions it executes.
// Invoking the service emits fetch bursts at the functions' hot spots.
type Service struct {
	Name string
	// KernelTime is the nominal in-kernel execution time of one
	// invocation, in microseconds.
	KernelTime int64
	// FetchesPerInvocation is the nominal number of monitored-region
	// instruction fetches one invocation produces.
	FetchesPerInvocation float64
	parts                []part
}

// serviceSpec drives catalog construction.
type serviceSpec struct {
	name    string
	ktime   int64
	fetches float64
	// subs lists (subsystem, weight, howMany functions) triples.
	subs []struct {
		sub string
		w   float64
		n   int
	}
}

func sspec(name string, ktime int64, fetches float64, subs ...struct {
	sub string
	w   float64
	n   int
}) serviceSpec {
	return serviceSpec{name: name, ktime: ktime, fetches: fetches, subs: subs}
}

func sw(sub string, w float64, n int) struct {
	sub string
	w   float64
	n   int
} {
	return struct {
		sub string
		w   float64
		n   int
	}{sub, w, n}
}

// buildServices assembles the fixed service catalog over the generated
// symbols. Fetch budgets are sized so a 78%-utilized 10 ms interval lands
// in the paper's Fig. 9 traffic range (~10⁴–10⁵ fetches).
func (img *Image) buildServices(rng *rand.Rand) error {
	specs := []serviceSpec{
		sspec(SvcSyscallEntry, 2, 220, sw(SubEntry, 1.0, 4)),
		sspec(SvcRead, 18, 1900, sw(SubEntry, 0.12, 3), sw(SubFS, 0.58, 6), sw(SubLib, 0.20, 3), sw(SubMM, 0.10, 2)),
		sspec(SvcWrite, 16, 1700, sw(SubEntry, 0.12, 3), sw(SubFS, 0.56, 5), sw(SubLib, 0.22, 3), sw(SubMM, 0.10, 2)),
		sspec(SvcOpen, 30, 2600, sw(SubEntry, 0.10, 3), sw(SubFS, 0.70, 8), sw(SubMM, 0.12, 2), sw(SubLib, 0.08, 2)),
		sspec(SvcClose, 10, 900, sw(SubEntry, 0.15, 3), sw(SubFS, 0.70, 4), sw(SubLib, 0.15, 2)),
		sspec(SvcFork, 120, 9000, sw(SubEntry, 0.05, 3), sw(SubProc, 0.45, 7), sw(SubMM, 0.35, 6), sw(SubSched, 0.15, 3)),
		sspec(SvcExec, 200, 15000, sw(SubEntry, 0.04, 3), sw(SubProc, 0.30, 6), sw(SubFS, 0.26, 6), sw(SubMM, 0.30, 6), sw(SubLib, 0.10, 3)),
		sspec(SvcExit, 80, 6000, sw(SubEntry, 0.05, 3), sw(SubProc, 0.50, 6), sw(SubMM, 0.30, 5), sw(SubSched, 0.15, 3)),
		sspec(SvcWait, 25, 1800, sw(SubEntry, 0.12, 3), sw(SubProc, 0.66, 4), sw(SubSched, 0.22, 2)),
		sspec(SvcPersonality, 8, 700, sw(SubEntry, 0.25, 3), sw(SubProc, 0.55, 3), sw(SubMM, 0.20, 2)),
		sspec(SvcKill, 15, 1200, sw(SubEntry, 0.15, 3), sw(SubIPC, 0.45, 3), sw(SubProc, 0.25, 3), sw(SubSched, 0.15, 2)),
		sspec(SvcMmap, 40, 3200, sw(SubEntry, 0.08, 3), sw(SubMM, 0.80, 8), sw(SubLib, 0.12, 2)),
		sspec(SvcPipe, 22, 1600, sw(SubEntry, 0.12, 3), sw(SubIPC, 0.62, 4), sw(SubFS, 0.26, 3)),
		sspec(SvcSocket, 35, 2800, sw(SubEntry, 0.10, 3), sw(SubNet, 0.78, 8), sw(SubMM, 0.12, 2)),
		sspec(SvcModuleLoad, 900, 70000, sw(SubEntry, 0.02, 3), sw(SubModule, 0.60, 8), sw(SubMM, 0.22, 6), sw(SubFS, 0.10, 4), sw(SubLib, 0.06, 3)),
		sspec(SvcSchedTick, 5, 800, sw(SubIRQ, 0.30, 3), sw(SubTimer, 0.40, 4), sw(SubSched, 0.30, 4)),
		sspec(SvcCtxSwitch, 4, 450, sw(SubSched, 0.70, 4), sw(SubMM, 0.30, 2)),
		sspec(SvcIdleLoop, 0, 2600, sw(SubIdle, 0.85, 2), sw(SubSched, 0.15, 2)), // fetches per idle millisecond
		sspec(SvcPageFault, 12, 1000, sw(SubEntry, 0.10, 2), sw(SubMM, 0.75, 6), sw(SubLib, 0.15, 2)),
	}
	for _, sp := range specs {
		svc := &Service{Name: sp.name, KernelTime: sp.ktime, FetchesPerInvocation: sp.fetches}
		totalW := 0.0
		for _, s := range sp.subs {
			fns, err := img.pick(s.sub, s.n)
			if err != nil {
				return fmt.Errorf("kernelmap: service %s: %w", sp.name, err)
			}
			// Split the subsystem weight across its functions with a
			// deterministic skew (front-loaded, like a call chain where
			// the first callee dominates).
			skew := make([]float64, len(fns))
			sum := 0.0
			for i := range fns {
				skew[i] = 1.0 / float64(i+1)
				sum += skew[i]
			}
			for i, fn := range fns {
				w := s.w * skew[i] / sum
				svc.parts = append(svc.parts, part{fn: fn, w: w})
				totalW += w
			}
		}
		// Normalize so parts sum to exactly 1.
		for i := range svc.parts {
			svc.parts[i].w /= totalW
		}
		img.services[sp.name] = svc
	}
	return nil
}

// Service returns the named service.
func (img *Image) Service(name string) (*Service, error) {
	s, ok := img.services[name]
	if !ok {
		return nil, fmt.Errorf("kernelmap: %q: %w", name, ErrUnknownService)
	}
	return s, nil
}

// Emit produces the fetch bursts of `scale` invocations of the service at
// time t. scale may be fractional (a partially executed syscall segment
// emits a proportional share). rng adds the ±5% per-burst measurement
// noise that makes training MHMs vary like real captures; pass a
// deterministic source for reproducibility. The bursts are appended to
// dst and returned.
func (s *Service) Emit(rng *rand.Rand, t int64, scale float64, dst []trace.Access) []trace.Access {
	if scale <= 0 {
		return dst
	}
	budget := s.FetchesPerInvocation * scale
	for _, p := range s.parts {
		fnBudget := budget * p.w
		for _, spot := range p.fn.Spots {
			f := fnBudget * spot.W
			if rng != nil {
				f *= 1 + 0.05*(2*rng.Float64()-1)
			}
			count := uint32(f + 0.5)
			if count == 0 {
				continue
			}
			dst = append(dst, trace.Access{
				Time:  t,
				Addr:  p.fn.Addr + spot.Off,
				Count: count,
			})
		}
	}
	return dst
}

// TouchedFunctions lists the functions a service executes, heaviest
// first, for introspection and tests.
func (s *Service) TouchedFunctions() []*Function {
	parts := append([]part(nil), s.parts...)
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].w > parts[j].w })
	out := make([]*Function, len(parts))
	for i, p := range parts {
		out[i] = p.fn
	}
	return out
}
