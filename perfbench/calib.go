package main

import (
	"container/heap"
	"time"
)

// Host speed on a shared machine drifts by a fifth or more over minutes,
// far more than a change to the simulator should be judged by. Every cell
// run is therefore bracketed by a calibration kernel that uses no
// simulator code but does what dominates the simulator's host time: a
// discrete-event loop that resumes the earliest of calibThreads goroutines
// from a heap ordered by (virtual time, id), handing control back and forth
// over unbuffered channels, with a little memory work per step. Of the
// kernels tried on the noisy host (this one; a two-goroutine ping-pong with
// random accesses over 4 MiB; pure hashing), it tracked the drift of
// flextm-16t's run totals best. A cell's calibrated time is its host time
// scaled by calibNominal over the mean of the two kernel times around it:
// the time the cell would take on a host where the kernel takes
// calibNominal.
const (
	calibNominal = 6 * time.Millisecond
	calibThreads = 16
	calibSteps   = 400 // per thread
)

type calibThread struct {
	id     int
	now    uint64
	resume chan struct{}
}

type calibHeap []*calibThread

func (h calibHeap) Len() int { return len(h) }
func (h calibHeap) Less(i, j int) bool {
	if h[i].now != h[j].now {
		return h[i].now < h[j].now
	}
	return h[i].id < h[j].id
}
func (h calibHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)   { *h = append(*h, x.(*calibThread)) }
func (h *calibHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibrate times one run of the calibration kernel. Each thread pushes
// itself back on the heap before yielding; the loop ends once every thread
// has finished and the heap is empty.
func calibrate() time.Duration {
	start := time.Now()
	yield := make(chan *calibThread)
	buf := make([]uint64, 1<<16)
	var ready calibHeap
	for i := 0; i < calibThreads; i++ {
		t := &calibThread{id: i, resume: make(chan struct{})}
		heap.Push(&ready, t)
		go func() {
			<-t.resume
			x := uint64(t.id)
			for j := 0; j < calibSteps; j++ {
				x = x*6364136223846793005 + 1442695040888963407
				buf[x>>48] += x
				t.now += x >> 60
				heap.Push(&ready, t)
				yield <- t
				<-t.resume
			}
			yield <- t
		}()
	}
	for ready.Len() > 0 {
		heap.Pop(&ready).(*calibThread).resume <- struct{}{}
		<-yield
	}
	return time.Since(start)
}
