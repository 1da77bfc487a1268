package pibe

// SystemEngine exposes a system's execution tier to the external tests.
func SystemEngine(s *System) Engine { return s.engine }
