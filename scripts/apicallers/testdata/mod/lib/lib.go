// Package lib is the library the apicallers test scans.
package lib

import (
	"errors"
	"fmt"
)

// Config holds the library's options.
type Config struct {
	// Used is set by the app.
	Used int
	// Knob is set only by a test.
	Knob bool
}

// Run reads both options.
func Run(c Config) string {
	if c.Knob {
		return "knob"
	}
	return fmt.Sprint(c.Used)
}

// Unused has no caller outside tests.
func Unused() int { return 1 }

// Kept has no caller outside tests either.
func Kept() int { return 2 }

// Name is printed by the app; its String is never called by name.
type Name struct{}

func (Name) String() string { return "name" }

// Err is returned by Fail; its methods are never called by name.
type Err struct{ cause error }

func (e *Err) Error() string { return "err: " + e.cause.Error() }

func (e *Err) Unwrap() error { return e.cause }

// Fail returns an *Err.
func Fail() error { return &Err{cause: errors.New("cause")} }
