package graph

// Hooks for the external test package.
var (
	ReadStreamChunks = readStream
	ChunkCount       = chunkCount
	Outcome          = outcome
	RefTrace         = refTrace
	StreamTrace      = streamTrace
)
