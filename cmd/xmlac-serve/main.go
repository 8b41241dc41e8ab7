// xmlac-serve is the multi-tenant document server: it registers protected
// XML documents and per-subject access-control policies over HTTP and
// serves streamed authorized views concurrently. Each policy is compiled
// once, when it is installed, and evaluated by every view of its subject.
//
// Quickstart:
//
//	xmlac-serve -addr :8080 -demo &
//	curl 'localhost:8080/docs/hospital/view?subject=DrA&indent=1'
//	curl 'localhost:8080/metrics'
//
// Registering your own document and policy:
//
//	curl -X PUT --data-binary @doc.xml localhost:8080/docs/mydoc
//	curl -X PUT -d '{"rules":[{"sign":"+","object":"//public"}]}' \
//	     localhost:8080/docs/mydoc/policies/alice
//	curl 'localhost:8080/docs/mydoc/view?subject=alice'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xmlac"
	"xmlac/internal/dataset"
	"xmlac/internal/server"
	"xmlac/internal/xmlstream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	sessionIdle := flag.Duration("session-idle", server.DefaultSessionIdle, "drop sessions idle for this long")
	scheme := flag.String("scheme", string(xmlac.SchemeECBMHT), "default protection scheme (ecb, ecb-mht, cbc-sha, cbc-shac)")
	demo := flag.Bool("demo", false, "preload the hospital demo document and the paper's three profiles")
	demoFolders := flag.Int("demo-folders", 100, "folders in the demo hospital document")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	dataDir := flag.String("data-dir", "", "durable storage directory (WAL + checkpoints); empty keeps the store in-memory")
	pprof := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceBuffer := flag.Int("trace-buffer", 0, "spans retained for GET /debug/trace (0 selects the default; negative disables tracing)")
	parallelism := flag.Int("parallelism", 0, "region workers per view scan (0 = serial; >= 2 enables the parallel intra-document scan and caps ?parallel=N)")
	flag.Parse()

	logger, err := buildLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmlac-serve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	defScheme, err := xmlac.ParseScheme(*scheme)
	if err != nil {
		fatal(logger, "parsing scheme", err)
	}
	srv, err := server.Open(server.Options{
		SessionIdle:     *sessionIdle,
		DefaultScheme:   defScheme,
		DataDir:         *dataDir,
		Logger:          logger,
		EnablePprof:     *pprof,
		TraceBufferSize: *traceBuffer,
		DisableTracing:  *traceBuffer < 0,
		ViewParallelism: *parallelism,
	})
	if err != nil {
		fatal(logger, "opening server", err)
	}
	defer srv.Close()
	if *demo {
		// A recovered hospital document keeps its version chain (and the
		// retained deltas remote caches resync from); re-registering it would
		// reset both, so the preload only fills an absent document.
		if _, err := srv.Store().Entry("hospital"); err == nil {
			logger.Info("demo document recovered from data dir, preload skipped", "document", "hospital")
		} else {
			if err := preloadDemo(srv, *demoFolders); err != nil {
				fatal(logger, "preloading demo content", err)
			}
			logger.Info("demo document loaded", "document", "hospital",
				"subjects", "secretary, DrA..DrH, researcher", "folders", *demoFolders)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("xmlac-serve listening", "addr", *addr, "pprof", *pprof)
		errCh <- httpSrv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serving", err)
		}
	case sig := <-stop:
		logger.Info("draining on signal", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "error", err)
			os.Exit(1)
		}
		logger.Info("shutdown complete")
	}
}

// buildLogger resolves the -log-level and -log-format flags into a slog
// logger writing to stderr.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}

// preloadDemo registers the paper's hospital document and the three profile
// policies of the motivating example (Figure 1). It goes through the server's
// registration pipeline (not the bare store) so the demo content is durable
// when -data-dir is set.
func preloadDemo(srv *server.Server, folders int) error {
	xml := xmlstream.SerializeTree(dataset.HospitalFolders(folders, 2026), false)
	if _, err := srv.RegisterDocument("hospital", xml, "", xmlac.SchemeECBMHT); err != nil {
		return err
	}
	policies := []xmlac.Policy{xmlac.SecretaryPolicy(), xmlac.ResearcherPolicy("G1", "G2", "G3")}
	for _, phys := range dataset.Physicians() {
		policies = append(policies, xmlac.DoctorPolicy(phys))
	}
	for _, p := range policies {
		if _, err := srv.InstallPolicy("hospital", p.Subject, p); err != nil {
			return fmt.Errorf("policy for %q: %w", p.Subject, err)
		}
	}
	return nil
}
