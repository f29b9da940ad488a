package savat

import "errors"

// Sentinel validation errors, shared by Config.Validate,
// Campaign.Validate, CampaignSpec.Validate, and the CLI flag layer
// (internal/cliconf aliases them), so every surface rejects a bad setup
// with the same identity. Test with errors.Is.
var (
	// ErrBadDistance reports a non-positive antenna distance.
	ErrBadDistance = errors.New("savat: distance must be positive")
	// ErrBadFrequency reports a non-positive alternation frequency.
	ErrBadFrequency = errors.New("savat: frequency must be positive")
	// ErrBadRepeats reports a repetition count below one.
	ErrBadRepeats = errors.New("savat: repeats must be at least 1")
	// ErrUnknownMachine reports a CampaignSpec machine name that is not a
	// case-study system.
	ErrUnknownMachine = errors.New("savat: unknown machine")
	// ErrSpecVersion reports a CampaignSpec whose version this build does
	// not understand.
	ErrSpecVersion = errors.New("savat: unsupported campaign spec version")
	// ErrUnknownChannel reports a Config channel name that is not in the
	// machine.Channels registry.
	ErrUnknownChannel = errors.New("savat: unknown channel")
	// ErrBadCountermeasure reports an invalid countermeasure chain entry.
	ErrBadCountermeasure = errors.New("savat: bad countermeasure")
)
