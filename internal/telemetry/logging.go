package telemetry

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
)

// runIDKey is the context key carrying the current run's ID.
type runIDKey struct{}

// WithRunID returns a context carrying the run ID; every log record
// emitted through a handler built by this package while that context is
// in scope is stamped with a run_id attribute.
func WithRunID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, runIDKey{}, id)
}

// RunIDFrom extracts the run ID threaded through the context ("" when
// absent).
func RunIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(runIDKey{}).(string)
	return id
}

// runIDHandler decorates a slog.Handler so records inherit the run_id
// from their context.
type runIDHandler struct{ inner slog.Handler }

// Enabled implements slog.Handler.
func (h runIDHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.inner.Enabled(ctx, l)
}

// Handle implements slog.Handler, appending run_id when the context
// carries one.
func (h runIDHandler) Handle(ctx context.Context, rec slog.Record) error {
	if id := RunIDFrom(ctx); id != "" {
		rec = rec.Clone()
		rec.AddAttrs(slog.String("run_id", id))
	}
	return h.inner.Handle(ctx, rec)
}

// WithAttrs implements slog.Handler.
func (h runIDHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return runIDHandler{inner: h.inner.WithAttrs(attrs)}
}

// WithGroup implements slog.Handler.
func (h runIDHandler) WithGroup(name string) slog.Handler {
	return runIDHandler{inner: h.inner.WithGroup(name)}
}

// LogFlags is pvcd's structured-logging flag set (the daemon is the
// one command that logs): -log-format selects the slog handler encoding
// and -log-level the verbosity floor. Register it on a flag.FlagSet,
// then call Setup after parsing.
type LogFlags struct {
	Format string
	Level  string
}

// Register declares the flags.
func (f *LogFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Format, "log-format", "text", "structured log encoding: text or json")
	fs.StringVar(&f.Level, "log-level", "info", "minimum log level: debug, info, warn, or error")
}

// Handler builds the slog.Handler the flags describe, writing to w and
// stamping run IDs from record contexts.
func (f *LogFlags) Handler(w io.Writer) (slog.Handler, error) {
	var level slog.Level
	if f.Level != "" {
		if err := level.UnmarshalText([]byte(f.Level)); err != nil {
			return nil, fmt.Errorf("telemetry: -log-level %q: want debug, info, warn, or error", f.Level)
		}
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch f.Format {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("telemetry: -log-format %q: want text or json", f.Format)
	}
	return runIDHandler{inner: h}, nil
}

// Setup builds the handler and returns its logger, to be called right
// after parsing. It deliberately does NOT install the logger as the
// process-wide slog default: slog.SetDefault also reroutes the legacy
// log package through the handler, which would wrap plain log.Fatal
// diagnostics in timestamped INFO records. A daemon that wants the
// default (pvcd) calls slog.SetDefault itself.
func (f *LogFlags) Setup(w io.Writer) (*slog.Logger, error) {
	h, err := f.Handler(w)
	if err != nil {
		return nil, err
	}
	return slog.New(h), nil
}
