package storecommon

import "time"

// Size units.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30
	TB = 1 << 40
)

// Service limits of the 2011/2012-era Windows Azure storage service, as
// described in the paper (§IV) and the contemporaneous documentation. The
// engines enforce the structural limits; the simulated cloud enforces the
// rate ("scalability") targets.
const (
	// Blob service.
	MaxBlockSize         = 4 * MB   // one PutBlock body
	MaxSingleShotBlob    = 64 * MB  // block blob uploadable as one entity
	MaxBlocksPerBlob     = 50_000   // committed blocks per block blob
	MaxBlockBlobSize     = 200 * GB // 50,000 * 4 MB
	MaxPageBlobSize      = 1 * TB
	PageAlignment        = 512    // page offsets/lengths must be multiples
	MaxPageWrite         = 4 * MB // one PutPage body
	PerBlobThroughputBps = 60 * MB

	// Queue service.
	MaxMessageSize    = 64 * KB // wire size including metadata
	MaxMessagePayload = 49_152  // 48 KB of usable payload (per the paper)
	QueueOpsPerSec    = 500     // per queue (single partition)

	// Table service.
	MaxEntitySize       = 1 * MB
	MaxEntityProperties = 255
	PartitionOpsPerSec  = 500 // per table partition
	MaxBatchOperations  = 100 // entity-group transaction size
	MaxBatchPayload     = 4 * MB
	MaxQueryPageSize    = 1000 // entities per query page (continuation after)

	// Account-wide scalability targets.
	AccountOpsPerSec    = 5000
	AccountBandwidthBps = 3 * GB
	AccountCapacity     = 100 * TB

	// Replication: Azure keeps three replicas with strong consistency.
	Replicas = 3
)

// MaxMessageTTL is the maximum (and default, in our engine) queue-message
// time-to-live. It was two hours in early Azure APIs; the October 2011 API
// — the one the paper benchmarks — extended it to one week.
const MaxMessageTTL = 7 * 24 * time.Hour

// DefaultVisibilityTimeout is applied when GetMessage does not specify one.
const DefaultVisibilityTimeout = 30 * time.Second

// MaxVisibilityTimeout bounds the visibility timeout of a dequeued message.
const MaxVisibilityTimeout = 7 * 24 * time.Hour

// MaxMessagesPerCall bounds numofmessages on Get Messages and Peek
// Messages: the service accepts 1 to 32.
const MaxMessagesPerCall = 32
