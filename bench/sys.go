package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
)

// rusage reads the process's resource usage; a failure here means the
// platform cannot run the benchmark at all.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuNanos is the process's user plus system CPU time so far.
func cpuNanos() int64 {
	ru := rusage()
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// residentMB reads the process's resident set size from an open
// /proc/self/statm, without allocating.
func residentMB(statm *os.File) (float64, error) {
	var buf [128]byte
	n, err := statm.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", buf[:n])
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}
