package engine

import "djstar/internal/admission"

// The engine registering on a shared controller.
type sharedGate struct{ c *admission.Controller }
