package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The generator and the server it measures must not share cores: with both
// floating over the same CPUs, a request's latency is mostly how long the
// server thread waited for a generator thread to leave the CPU (and the
// reverse), a scheduler slice at a time, and that noise is wider than any
// change the benchmark is meant to detect. So the CPUs the process may use
// are split in two: the lower half for the server children, the upper half
// for this process. On one CPU nothing is pinned.

// cpuMask is a sched_setaffinity bit mask.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func (m *cpuMask) cpus() []int {
	var out []int
	for cpu := 0; cpu < len(m)*64; cpu++ {
		if m.has(cpu) {
			out = append(out, cpu)
		}
	}
	return out
}

func setAffinity(tid int, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

func getAffinity(m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// serverCPUs and generatorCPUs are the two halves; both nil when the
// process was left unpinned.
var serverCPUs, generatorCPUs *cpuMask

// splitCPUs pins every thread of this process to the upper half of the
// CPUs it was allowed, and remembers the lower half for the children.
// Threads started later inherit the mask of the thread that starts them.
func splitCPUs() error {
	var allowed cpuMask
	if err := getAffinity(&allowed); err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpus := allowed.cpus()
	if len(cpus) < 2 {
		return nil
	}
	server, generator := &cpuMask{}, &cpuMask{}
	for i, cpu := range cpus {
		if i < len(cpus)/2 {
			server.set(cpu)
		} else {
			generator.set(cpu)
		}
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that exited since the listing is not an error.
		if err := setAffinity(tid, generator); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity(%d): %w", tid, err)
		}
	}
	serverCPUs, generatorCPUs = server, generator
	// One P per generator CPU, also when there are more workers than that:
	// a spare P is a thread spinning for work on a CPU a worker needs
	// (measured on one generator CPU: GOMAXPROCS 2 took p50_ms@browse from
	// 0.26 to 0.80). The workers never hold a P while they wait; see sleeper.
	runtime.GOMAXPROCS(len(generator.cpus()))
	return nil
}

// onServerCPUs runs start — which forks a server child — on a thread
// moved to the server's CPUs for the duration, so the child inherits them.
func onServerCPUs(start func() error) error {
	if serverCPUs == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, serverCPUs); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	err := start()
	if rerr := setAffinity(0, generatorCPUs); err == nil && rerr != nil {
		err = fmt.Errorf("sched_setaffinity: %w", rerr)
	}
	return err
}
