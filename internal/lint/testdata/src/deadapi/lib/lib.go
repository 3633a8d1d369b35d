// Package lib holds the exports the deadapi fixture judges.
package lib

import "fmt"

// Used is called from the user command.
func Used() int { return 1 }

// Unused has no caller anywhere.
func Unused() int { return 2 } // want `exported func Unused has no non-test reference`

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 3 } // want `exported func TestOnly has no non-test reference`

// Countdown calls only itself.
func Countdown(n int) int { // want `exported func Countdown has no non-test reference`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Buf satisfies the user command's sizer interface and fmt.Stringer;
// neither method is called directly.
type Buf struct{ n int }

// NewBuf is called from the user command.
func NewBuf() *Buf { return &Buf{n: 4} }

// Size satisfies the sizer interface the user command declares.
func (b *Buf) Size() int { return b.n }

// String satisfies fmt.Stringer.
func (b *Buf) String() string { return fmt.Sprint(b.n) }

// Grow is never called and satisfies no interface.
func (b *Buf) Grow() { b.n++ } // want `exported method Buf.Grow has no non-test reference`

// ArchOnly is referenced only from a file built for another GOARCH.
func ArchOnly() int { return 5 }

// Limit is referenced nowhere.
const Limit = 6 // want `exported const Limit has no non-test reference`

// Kept has no caller; the directive keeps it.
//
//mhmlint:ignore deadapi exercises the suppression case
func Kept() int { return 7 }
