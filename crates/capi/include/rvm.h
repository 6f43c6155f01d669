/*
 * rvm.h — C interface to rvm-rs, a Rust implementation of
 * "Lightweight Recoverable Virtual Memory" (SOSP '93).
 *
 * Link against the `rvm_capi` cdylib/staticlib produced by
 * `cargo build -p rvm-capi --release`.
 */
#ifndef RVM_RS_H
#define RVM_RS_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct RvmHandle rvm_t;
typedef struct RegionHandle rvm_region_t;
typedef struct TidHandle rvm_tid_t;

typedef enum {
    RVM_SUCCESS = 0,
    RVM_EINVALID = 1,
    RVM_ELOG = 2,
    RVM_EMAPPING = 3,
    RVM_ERANGE = 4,
    RVM_ENOT_MAPPED = 5,
    RVM_EBUSY = 6,
    RVM_ETID_ENDED = 7,
    RVM_ENO_RESTORE = 8,
    RVM_ELOG_FULL = 9,
    RVM_ETXNS_OUTSTANDING = 10,
    RVM_EIO = 11,
    RVM_ETERMINATED = 12,
    RVM_EPANIC = 13,
    RVM_EPOISONED = 14,      /* instance poisoned by unrecoverable I/O */
    RVM_EIO_TRANSIENT = 15,  /* transient fault exhausted its retries */
    RVM_EMEDIA = 16,         /* media corruption: region quarantined read-only */
} rvm_return_t;

#define RVM_RESTORE 0     /* begin_transaction restore_mode values */
#define RVM_NO_RESTORE 1
#define RVM_FLUSH 0       /* end_transaction commit_mode values */
#define RVM_NO_FLUSH 1

/* Filled by rvm_query(). New fields are appended; a field that can only
 * read 0 is removed. */
typedef struct {
    uint64_t active_transactions;
    uint64_t spooled_transactions;
    uint64_t log_used;
    uint64_t log_capacity;
    uint64_t txns_committed;
    uint64_t bytes_logged;
    uint64_t log_forces;
    uint64_t flush_commits;
    uint64_t group_commit_batches;
    uint64_t epochs_truncated;
    uint64_t commits_during_truncation;
    uint64_t truncation_stall_ns;
    uint64_t truncation_in_flight;
    uint64_t replicas_alive;
    uint64_t replicas_total;
    uint64_t pages_scrubbed;
    uint64_t corruptions_detected;
    uint64_t corruptions_repaired;
    uint64_t regions_quarantined;
    uint64_t group_waits;    /* times a commit leader waited for company */
    uint64_t group_wait_ns;  /* nanoseconds spent in those waits */
} rvm_query_t;

rvm_return_t rvm_create_log(const char *log_path, uint64_t len);
rvm_return_t rvm_initialize(const char *log_path, int create, rvm_t **out);
rvm_return_t rvm_map(rvm_t *h, const char *segment, uint64_t offset,
                     uint64_t len, rvm_region_t **out);
rvm_return_t rvm_unmap(rvm_t *h, rvm_region_t *region);
void rvm_free_region(rvm_region_t *region);
uint8_t *rvm_region_base(rvm_region_t *region);
uint64_t rvm_region_len(rvm_region_t *region);
rvm_return_t rvm_begin_transaction(rvm_t *h, int restore_mode, rvm_tid_t **out);
rvm_return_t rvm_set_range(rvm_tid_t *tid, rvm_region_t *region,
                           uint64_t offset, uint64_t len);
rvm_return_t rvm_set_range_ptr(rvm_tid_t *tid, rvm_region_t *region,
                               const uint8_t *addr, uint64_t len);
rvm_return_t rvm_end_transaction(rvm_tid_t *tid, int commit_mode);
rvm_return_t rvm_abort_transaction(rvm_tid_t *tid);
void rvm_free_tid(rvm_tid_t *tid);
rvm_return_t rvm_flush(rvm_t *h);
rvm_return_t rvm_truncate(rvm_t *h);
rvm_return_t rvm_query(rvm_t *h, rvm_query_t *out);
rvm_return_t rvm_terminate(rvm_t *h);
const char *rvm_strerror(rvm_return_t code);

#ifdef __cplusplus
}
#endif

#endif /* RVM_RS_H */
