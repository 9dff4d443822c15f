package onex

import "fmt"

// ConfigError reports an invalid Config combination passed to Open or
// OpenFile. Unset (zero) fields are resolved to documented
// defaults and never produce a ConfigError; explicitly contradictory or
// out-of-domain values do, instead of being silently clamped.
//
// Use errors.As to detect it:
//
//	var ce *onex.ConfigError
//	if errors.As(err, &ce) { log.Fatalf("bad %s: %s", ce.Field, ce.Reason) }
type ConfigError struct {
	// Field names the offending Config field ("MinLength", "Workers", ...).
	Field string
	// Value is the rejected value, rendered with %v.
	Value any
	// Reason says what the field's domain is.
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("onex: invalid Config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// AnalysisError reports an invalid Analysis passed to Analyze, in the
// style of ConfigError: unset (zero) fields resolve to documented defaults
// and never produce an AnalysisError; missing required fields and
// out-of-domain values do, instead of being silently clamped.
//
// Use errors.As to detect it:
//
//	var ae *onex.AnalysisError
//	if errors.As(err, &ae) { log.Fatalf("bad %s: %s", ae.Field, ae.Reason) }
type AnalysisError struct {
	// Kind is the analysis kind the request asked for (possibly invalid
	// itself, when Field is "Kind").
	Kind AnalysisKind
	// Field names the offending Analysis field ("Series", "Thresholds", ...).
	Field string
	// Value is the rejected value, rendered with %v.
	Value any
	// Reason says what the field's domain is.
	Reason string
}

// Error implements the error interface.
func (e *AnalysisError) Error() string {
	return fmt.Sprintf("onex: invalid Analysis.%s = %v (kind %q): %s", e.Field, e.Value, e.Kind, e.Reason)
}

// validateConfig rejects contradictory or out-of-domain Config values.
// Zero values are legal everywhere (they select defaults) and are resolved
// by Open after this check passes.
func validateConfig(cfg Config) error {
	if cfg.ST < 0 || cfg.ST != cfg.ST { // negative or NaN
		return &ConfigError{Field: "ST", Value: cfg.ST,
			Reason: "similarity threshold must be positive (or 0 for the data-driven default)"}
	}
	if cfg.MinLength < 0 || cfg.MinLength == 1 {
		return &ConfigError{Field: "MinLength", Value: cfg.MinLength,
			Reason: "indexed lengths start at 2 (or 0 for the default)"}
	}
	if cfg.MaxLength < 0 {
		return &ConfigError{Field: "MaxLength", Value: cfg.MaxLength,
			Reason: "must be positive (or 0 for the longest series)"}
	}
	if cfg.MinLength > 0 && cfg.MaxLength > 0 && cfg.MinLength > cfg.MaxLength {
		return &ConfigError{Field: "MinLength", Value: cfg.MinLength,
			Reason: fmt.Sprintf("exceeds MaxLength %d", cfg.MaxLength)}
	}
	if cfg.Workers < 0 {
		return &ConfigError{Field: "Workers", Value: cfg.Workers,
			Reason: "must be non-negative (0 = GOMAXPROCS)"}
	}
	if cfg.FsyncEvery < 0 {
		return &ConfigError{Field: "FsyncEvery", Value: cfg.FsyncEvery,
			Reason: "must be non-negative (0 or 1 = fsync per ingest)"}
	}
	return nil
}
