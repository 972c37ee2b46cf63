// Command cachesim replays an instruction-fetch trace (as written by
// `ease -fetchtrace`) through direct-mapped instruction caches and reports
// the paper's metrics (miss ratio, fetch cost) per configuration.
//
//	ease -prog od -machine sparc -level jumps -fetchtrace od.trace
//	cachesim -sizes 1024,2048,4096,8192 < od.trace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cache"
)

func main() {
	sizesArg := flag.String("sizes", "1024,2048,4096,8192", "comma-separated cache sizes in bytes")
	lineBytes := flag.Int64("line", cache.DefaultLineBytes, "cache line size in bytes")
	ctx := flag.Bool("ctx", true, "also simulate context-switch variants (flush every 10000 units)")
	file := flag.String("in", "", "trace file (default: stdin)")
	flag.Parse()

	sizes, err := parseSizes(*sizesArg, *lineBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(2)
	}
	var caches []*cache.Cache
	for _, sz := range sizes {
		caches = append(caches, cache.New(sz, *lineBytes, false))
		if *ctx {
			caches = append(caches, cache.New(sz, *lineBytes, true))
		}
	}

	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachesim:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		addr, size, err := parseFetch(sc.Text(), lineNo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachesim:", err)
			os.Exit(1)
		}
		if size == 0 {
			continue // blank line
		}
		for _, c := range caches {
			c.Fetch(addr, size)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}

	fmt.Printf("%10s %5s %12s %12s %12s %14s %9s\n",
		"size", "ctx", "fetches", "hits", "misses", "fetch cost", "miss%")
	for _, c := range caches {
		st := c.Stats()
		ctxs := "off"
		if st.CtxSwitches {
			ctxs = "on"
		}
		fmt.Printf("%10d %5s %12d %12d %12d %14d %8.3f%%\n",
			st.SizeBytes, ctxs, st.Fetches, st.Hits, st.Misses, st.Cost, 100*st.MissRatio())
	}
}

// parseSizes parses the -sizes list and checks each size, with the -line
// size, against cache.CheckGeometry.
func parseSizes(arg string, lineBytes int64) ([]int64, error) {
	var sizes []int64
	for _, s := range strings.Split(arg, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad size %q", s)
		}
		if err := cache.CheckGeometry(v, lineBytes); err != nil {
			return nil, err
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

// parseFetch parses trace line lineNo, `addr size` in decimal. A blank
// line yields size 0. The fetch must lie inside the address space the
// caches index: addr >= 0, size > 0, and addr+size must not overflow.
func parseFetch(text string, lineNo int) (addr, size int64, err error) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return 0, 0, nil
	}
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("line %d: want `addr size`", lineNo)
	}
	addr, err1 := strconv.ParseInt(fields[0], 10, 64)
	size, err2 := strconv.ParseInt(fields[1], 10, 64)
	switch {
	case err1 != nil || err2 != nil || size <= 0:
		return 0, 0, fmt.Errorf("line %d: bad numbers", lineNo)
	case addr < 0:
		return 0, 0, fmt.Errorf("line %d: negative address %d", lineNo, addr)
	case addr > math.MaxInt64-size:
		return 0, 0, fmt.Errorf("line %d: fetch of %d bytes at %d overflows the address space", lineNo, size, addr)
	}
	return addr, size, nil
}
