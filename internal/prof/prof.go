// Package prof wires the standard runtime/pprof profilers into the
// command-line tools: every sweep CLI takes -cpuprofile/-memprofile (and
// -blockprofile/-mutexprofile) flags so a slow design-space run can be fed
// straight to `go tool pprof` without a recompile. The simulator kernel was rewritten around exactly
// such profiles (see the README's Performance section); keeping the hooks
// in the shipped binaries makes the next optimization round as cheap.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Config names the profile outputs; empty paths skip that profiler.
type Config struct {
	// CPUPath receives a CPU profile covering start to stop.
	CPUPath string
	// MemPath receives a heap snapshot at stop (after a settling GC).
	MemPath string
	// BlockPath receives a blocking profile at stop. Arming it sets
	// runtime.SetBlockProfileRate(1) for the run — full-resolution
	// contention data on channel and mutex waits (the sweep worker pools
	// and the serve dispatcher are the usual subjects).
	BlockPath string
	// MutexPath receives a mutex-contention profile at stop, armed via
	// runtime.SetMutexProfileFraction(1).
	MutexPath string
}

// StartAll arms every profiler named in cfg. The returned stop function
// must run before the process exits — call it via defer from a run()
// helper that returns an exit code rather than calling os.Exit directly,
// so error paths flush profiles too. Stop also restores the block and
// mutex sampling rates it changed.
func StartAll(cfg Config) (stop func(), err error) {
	var cpuFile *os.File
	if cfg.CPUPath != "" {
		cpuFile, err = os.Create(cfg.CPUPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if cfg.BlockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.MutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if cfg.MemPath != "" {
			f, err := os.Create(cfg.MemPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
			} else {
				runtime.GC() // settle live heap before the snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "prof:", err)
				}
				f.Close()
			}
		}
		writeLookup(cfg.BlockPath, "block")
		writeLookup(cfg.MutexPath, "mutex")
		if cfg.BlockPath != "" {
			runtime.SetBlockProfileRate(0)
		}
		if cfg.MutexPath != "" {
			runtime.SetMutexProfileFraction(0)
		}
	}, nil
}

// writeLookup dumps one named runtime profile, if requested.
func writeLookup(path, name string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintln(os.Stderr, "prof:", err)
	}
}
