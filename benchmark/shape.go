package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"

	"github.com/v3storage/v3/internal/netv3"
	"github.com/v3storage/v3/internal/obs"
)

// The benchmark must compile unchanged on both sides of every later PR,
// including the ones that delete ServerConfig fields and stats counters
// (ROADMAP item 2). So configuration fields are set, and stats structs
// read, by name through reflect: a name that is gone is reported, not a
// build error.

// setField assigns val to the exported field name of the struct cfg
// points to, and reports whether the field exists with a compatible type.
func setField(cfg any, name string, val any) bool {
	f := reflect.ValueOf(cfg).Elem().FieldByName(name)
	if !f.IsValid() || !f.CanSet() {
		return false
	}
	v := reflect.ValueOf(val)
	if !v.Type().AssignableTo(f.Type()) {
		if !v.Type().ConvertibleTo(f.Type()) {
			return false
		}
		v = v.Convert(f.Type())
	}
	f.Set(v)
	return true
}

// stats is a stats struct flattened to its numeric fields by name.
type stats map[string]float64

// flatten returns the integer and float fields of a struct value.
func flatten(v reflect.Value) stats {
	out := stats{}
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return out
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch {
		case f.CanInt():
			out[name] = float64(f.Int())
		case f.CanUint():
			out[name] = float64(f.Uint())
		case f.CanFloat():
			out[name] = f.Float()
		}
	}
	return out
}

// callStats calls the niladic method on obj and flattens its first
// result; a method a later commit deleted yields an empty set.
func callStats(obj any, method string) stats {
	m := reflect.ValueOf(obj).MethodByName(method)
	if !m.IsValid() || m.Type().NumIn() != 0 || m.Type().NumOut() == 0 {
		return stats{}
	}
	return flatten(m.Call(nil)[0])
}

// add accumulates o into s (summing the same counter across backends).
func (s stats) add(o stats) {
	for k, v := range o {
		s[k] += v
	}
}

// shape is the pinned server configuration as actually applied.
type shape struct {
	applied []string // "Field=value"
	skipped []string // fields this commit no longer has
}

func (sh *shape) set(cfg any, name string, val any) {
	entry := fmt.Sprintf("%s=%v", name, val)
	if !setField(cfg, name, val) {
		sh.skipped = appendUnique(sh.skipped, name)
		return
	}
	sh.applied = appendUnique(sh.applied, entry)
}

func appendUnique(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}

// pinnedServerConfig is the one server shape every workload runs:
// scheduler + disk queue, write-behind and prefetch on. Only CacheBlocks
// varies per workload. reg is nil on the untraced run.
func pinnedServerConfig(cacheBlocks int, reg *obs.Registry, sh *shape) netv3.ServerConfig {
	cfg := netv3.DefaultServerConfig()
	sh.set(&cfg, "SchedWorkers", runtime.NumCPU())
	sh.set(&cfg, "DiskQ", true)
	sh.set(&cfg, "SQDepth", 64)
	sh.set(&cfg, "NoWriteBehind", false)
	sh.set(&cfg, "NoPrefetch", false)
	sh.set(&cfg, "CacheBlocks", cacheBlocks)
	if reg != nil && !setField(&cfg, "Metrics", reg) {
		sh.skipped = appendUnique(sh.skipped, "Metrics")
	}
	return cfg
}

// environment echoes what a reader needs to compare two result files.
func environment(seed int64) []string {
	commit := os.Getenv("V3BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	confined := os.Getenv(pinnedEnv)
	if confined == "" {
		confined = "no"
	}
	return []string{
		"commit=" + commit,
		"go=" + runtime.Version(),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		"confined_to_cpu=" + confined,
		"cpu=" + cpuModel(),
		"kernel=" + firstLine("/proc/sys/kernel/osrelease"),
		fmt.Sprintf("seed=%d", seed),
	}
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
