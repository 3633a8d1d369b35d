package main

import "deadapi/lib"

// archValue is the only reference to lib.ArchOnly; this file builds
// only for GOARCH=s390x.
var archValue = lib.ArchOnly()
