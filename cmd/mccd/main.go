// Command mccd is the compile-and-measure daemon: it serves the paper's
// whole compile/measure/grid workload over HTTP/JSON, backed by a bounded
// work queue, a GOMAXPROCS-sized worker pool, and a content-addressed
// result cache (a JUMPS compilation is a pure function of source ×
// machine × level × options, so identical requests are cache hits).
//
//	mccd -addr :8344
//	curl -s localhost:8344/healthz
//	curl -s -X POST localhost:8344/compile -d '{"source":"int main() { return 42; }"}'
//	curl -s -X POST localhost:8344/grid -d '{"programs":["wc","queens"],"tables":true}'
//
// See docs/SERVICE.md for the full API reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "work queue depth (0 = 4x workers)")
	cacheEntries := flag.Int("cache", service.DefaultCacheEntries, "result cache capacity (entries)")
	jobTimeout := flag.Duration("timeout", 2*time.Minute, "per-job timeout for /compile and /measure")
	gridTimeout := flag.Duration("grid-timeout", 15*time.Minute, "timeout for one /grid batch job")
	drainTimeout := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	retainTraces := flag.Int("retain-traces", 0,
		"completed jobs kept in the job table with their traces (0 = default)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(service.ResolveVersion())
		return
	}

	logger := log.New(os.Stderr, "mccd: ", log.LstdFlags)
	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cacheEntries,
		JobTimeout:   *jobTimeout,
		GridTimeout:  *gridTimeout,
		RetainTraces: *retainTraces,
		Logf:         logger.Printf,
	})

	srv := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(logger, svc.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Printf("mccd %s listening on %s (%d workers, queue %d, cache %d entries)",
		svc.Version(), *addr, svc.Pool().Workers(), svc.Pool().QueueCap(), *cacheEntries)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutting down: draining in-flight jobs (up to %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := svc.Close(dctx); err != nil {
		logger.Printf("drain: %v", err)
		os.Exit(1)
	}
	logger.Printf("drained cleanly")
}

// statusWriter captures the response status and size for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// logRequests logs one structured line per request: method, path, status,
// response size, duration, and — when the handler set one — the job ID,
// so a log line correlates with /jobs/{id}, /jobs/{id}/trace and
// /jobs/{id}/events while the job is retained.
func logRequests(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		line := fmt.Sprintf("%s %s status=%d bytes=%d dur=%s",
			r.Method, r.URL.Path, sw.status, sw.bytes,
			time.Since(start).Round(time.Microsecond))
		if job := sw.Header().Get("X-Mccd-Job"); job != "" {
			line += " job=" + job
		}
		logger.Printf("%s", line)
	})
}
