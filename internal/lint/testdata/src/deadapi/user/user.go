// Command user makes the references that count as uses of lib.
package main

import (
	"fmt"

	"deadapi/lib"
)

// sizer is satisfied by lib.Buf.
type sizer interface{ Size() int }

func main() {
	var s sizer = lib.NewBuf()
	fmt.Println(lib.Used(), s)
}
