// Evaluator scratch pools for the columnar scan kernels: machine
// extraction / behavioral distance buffers (FSM-distance family) and
// the top-1 SPROC DP's working set (geology family). A serving engine
// answers thousands of requests, so the buffers are recycled across
// them. A geology get/put brackets each candidate; an FSM-distance
// request holds one scratch from plan to finish, because its units
// run on one goroutine. Concurrent requests of mixed families share
// the pools safely.

package core

import (
	"sync"

	"modelir/internal/fsm"
	"modelir/internal/sproc"
)

var (
	fsmScratchPool   = sync.Pool{New: func() any { return fsm.NewScratch() }}
	sprocScratchPool = sync.Pool{New: func() any { return sproc.NewScratch() }}
)
