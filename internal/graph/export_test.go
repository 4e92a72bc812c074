package graph

// Hooks for the external test package.
var (
	ReadStreamChunks = readStream
	Outcome          = outcome
	RefTrace         = refTrace
	StreamTrace      = streamTrace
)
