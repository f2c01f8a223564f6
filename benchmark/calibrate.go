package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// calibrationRef is calibrate's typical duration in seconds on the
// benchmark host (two cores of an Intel Xeon VM); a repetition's speed
// factor is its calibrate time over this.
const calibrationRef = 0.09

// calNode is a linked-list cell for calibrate's pointer chasing.
type calNode struct {
	next *calNode
	v    [6]uint64
}

// calibrate measures the host's current speed: it times a fixed,
// simulator-like load (small allocations, pointer chasing, map updates,
// sorting) on every core and returns the time in seconds. It runs the
// benchmark's own code only, so a change to the simulator leaves it
// alone; the parent process runs it between repetitions to factor out the host
// slowing down and speeding up under other tenants.
func calibrate() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			m := map[uint64]*calNode{}
			var head *calNode
			xs := make([]int, 500)
			for i := 0; i < 300_000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				head = &calNode{next: head, v: [6]uint64{x}}
				m[x%50_000] = head
				if i%1000 == 999 {
					for j := range xs {
						xs[j] = int(head.v[0] % 1000)
						head = head.next
					}
					sort.Ints(xs)
					head = nil
				}
			}
		}(uint64(g) + 0x9E3779B97F4A7C15)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}
