/*
Package service is the serving layer behind the flipperd binary: it turns
the in-process mining engine (internal/core) into a long-running HTTP
service with an async job queue and a result cache.

Three pieces compose into a Server:

  - Registry: named taxonomy/basket datasets, loaded once from a data
    directory in the flipgen layout (one subdirectory per dataset holding
    taxonomy.tsv plus either baskets.txt or a shards/ directory of
    per-shard basket files). Datasets are either read into memory at
    load time or, in streaming mode (flipperd -stream, the only switch),
    left on disk behind txdb.FileSources that re-read the basket files on
    every counting pass and count by scan only. The sharded layout loads
    as a txdb.ShardedSource, so every mine over it counts shard-parallel
    — streamed sharded datasets are scanned in parallel without ever
    being resident together.
  - Queue: a bounded worker pool running core.Mine / core.EpsilonSweep.
    Submissions are deduplicated two ways: identical work already queued or
    running is coalesced onto the existing job (single-flight, so N
    identical submissions trigger one mine), and identical work finished
    earlier is answered from the cache without queueing at all. Completed
    jobs stay pollable up to a history cap, beyond which the oldest are
    pruned with their payloads, keeping a long-running daemon's memory
    bounded.
  - Cache: an LRU over completed results keyed by (dataset, kind,
    core.Config.CanonicalKey, sweep ε-list). The canonical key covers
    exactly the fields that change the mined output, so permuted JSON,
    differing parallelism, or differing instrumentation flags still hit.
    Cached payloads are the stored result bytes, which makes repeated
    answers byte-identical.

A finished job's result is rendered once, when it finishes: json.Marshal,
then indented into the form it takes inside a job envelope. That copy is
the job's Result and its cache entry, and it is the only one kept. Every
job envelope (POST /v1/jobs, GET /v1/jobs/{id}, GET|POST /v1/topk) encodes
only the small envelope around the result and splices the stored bytes in
unchanged, so a cache hit or a poll never re-scans a result, and the bytes
are exactly what an indenting json.Encoder writes for the whole envelope.

The cache is what makes the paper's own workflow cheap: threshold setting
is an ε-sweep that re-mines the same dataset many times, and consecutive
sweeps share every point that did not change.

The HTTP surface (all JSON, see docs/ARCHITECTURE.md for examples):

	POST /v1/jobs          submit a mine or sweep; 200 done (cache hit) or 202 queued
	GET  /v1/jobs/{id}     job status, and the result envelope once done
	GET  /v1/jobs          all jobs without result payloads
	GET  /v1/datasets      registered datasets with default configurations
	GET  /v1/healthz       liveness
	GET  /v1/stats         cache hit rate, queue depth, per-job core stats
*/
package service
