#include "core/wire.h"

namespace qrdtm::core {

namespace {

/// The one-shot encode() every message offers on top of encode_into().
template <class Message>
Bytes encode_message(const Message& m) {
  Writer w;
  m.encode_into(w);
  return std::move(w).take();
}

// Exact encoded sizes, used to reserve() writers before encoding so even a
// cold (unpooled) buffer allocates at most once.
constexpr std::size_t kEntryBytes = 8 + 8 + 8 + 4 + 8;      // DataSetEntry
constexpr std::size_t kReadReqHeader = 8 + 1 + 8 + 1 + 4;   // + entries
constexpr std::size_t kReadRespHeader = 1 + 8 + 4 + 8 + 4 + 8;  // + data
constexpr std::size_t kReadEntryBytes = 8 + 8;              // CommitReadEntry
constexpr std::size_t kWriteEntryHeader = 8 + 8 + 4;        // + data
constexpr std::size_t kBatchWriteHeader = 8 + 8 + 4 + 4;    // + data

/// Encoded size of either write-set flavour, given its per-entry header.
template <class WriteEntry>
std::size_t writeset_bytes(const std::vector<WriteEntry>& ws,
                           std::size_t header) {
  std::size_t n = 4;
  for (const WriteEntry& e : ws) n += header + e.data.size();
  return n;
}

void encode_read_entry(Writer& w, const CommitReadEntry& e) {
  w.u64(e.id);
  w.u64(e.version);
}

CommitReadEntry decode_read_entry(Reader& r) {
  CommitReadEntry e;
  e.id = r.u64();
  e.version = r.u64();
  return e;
}

void encode_write_entry(Writer& w, const CommitWriteEntry& e) {
  w.u64(e.id);
  w.u64(e.base);
  w.blob(e.data);
}

CommitWriteEntry decode_write_entry(Reader& r) {
  CommitWriteEntry e;
  e.id = r.u64();
  e.base = r.u64();
  e.data = r.blob();
  return e;
}

void encode_batch_write(Writer& w, const BatchWriteEntry& e) {
  w.u64(e.id);
  w.u64(e.base);
  w.u32(e.steps);
  w.blob(e.data);
}

BatchWriteEntry decode_batch_write(Reader& r) {
  BatchWriteEntry e;
  e.id = r.u64();
  e.base = r.u64();
  e.steps = r.u32();
  if (e.steps == 0) throw SerdeError("batch write entry with zero steps");
  e.data = r.blob();
  return e;
}

void encode_entry(Writer& w, const DataSetEntry& e) {
  w.u64(e.id);
  w.u64(e.version);
  w.u64(e.owner);
  w.u32(e.owner_depth);
  w.u64(e.owner_chk);
}

DataSetEntry decode_entry(Reader& r) {
  DataSetEntry e;
  e.id = r.u64();
  e.version = r.u64();
  e.owner = r.u64();
  e.owner_depth = r.u32();
  e.owner_chk = r.u64();
  return e;
}

}  // namespace

void encode_read_request(Writer& w, TxnId root, NestingMode mode,
                         ObjectId object, bool for_write,
                         const std::vector<DataSetEntry>& dataset) {
  w.reserve(w.size() + kReadReqHeader + dataset.size() * kEntryBytes);
  w.u64(root);
  w.u8(static_cast<std::uint8_t>(mode));
  w.u64(object);
  w.boolean(for_write);
  encode_vec(w, dataset, encode_entry);
}

void ReadRequest::encode_into(Writer& w) const {
  encode_read_request(w, root, mode, object, for_write, dataset);
}

Bytes ReadRequest::encode() const { return encode_message(*this); }

ReadRequest ReadRequest::decode(const Bytes& b) {
  Reader r(b);
  ReadRequest req;
  req.root = r.u64();
  req.mode = static_cast<NestingMode>(r.u8());
  req.object = r.u64();
  req.for_write = r.boolean();
  req.dataset = decode_vec<DataSetEntry>(r, decode_entry);
  r.expect_done();
  return req;
}

void ReadResponse::encode_into(Writer& w) const {
  w.reserve(w.size() + kReadRespHeader + data.size());
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(version);
  w.blob(data);
  w.u64(abort_scope);
  w.u32(abort_depth);
  w.u64(abort_chk);
}

Bytes ReadResponse::encode() const { return encode_message(*this); }

ReadResponse ReadResponse::decode(const Bytes& b) {
  Reader r(b);
  ReadResponse resp;
  resp.status = static_cast<ReadStatus>(r.u8());
  resp.version = r.u64();
  resp.data = r.blob();
  resp.abort_scope = r.u64();
  resp.abort_depth = r.u32();
  resp.abort_chk = r.u64();
  r.expect_done();
  return resp;
}

void CommitRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 4 + readset.size() * kReadEntryBytes +
            writeset_bytes(writeset, kWriteEntryHeader));
  w.u64(txn);
  encode_vec(w, readset, encode_read_entry);
  encode_vec(w, writeset, encode_write_entry);
}

Bytes CommitRequest::encode() const { return encode_message(*this); }

CommitRequest CommitRequest::decode(const Bytes& b) {
  Reader r(b);
  CommitRequest req;
  req.txn = r.u64();
  req.readset = decode_vec<CommitReadEntry>(r, decode_read_entry);
  req.writeset = decode_vec<CommitWriteEntry>(r, decode_write_entry);
  r.expect_done();
  return req;
}

void VoteResponse::encode_into(Writer& w) const { w.boolean(commit); }

Bytes VoteResponse::encode() const { return encode_message(*this); }

VoteResponse VoteResponse::decode(const Bytes& b) {
  Reader r(b);
  VoteResponse v;
  v.commit = r.boolean();
  r.expect_done();
  return v;
}

void SyncPullRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 4 + have.size() * 16);
  encode_vec(w, have, [](Writer& w2, const SyncBound& e) {
    w2.u64(e.id);
    w2.u64(e.version);
  });
}

Bytes SyncPullRequest::encode() const { return encode_message(*this); }

SyncPullRequest SyncPullRequest::decode(const Bytes& b) {
  Reader r(b);
  SyncPullRequest req;
  req.have = decode_vec<SyncBound>(r, [](Reader& r2) {
    SyncBound e;
    e.id = r2.u64();
    e.version = r2.u64();
    return e;
  });
  r.expect_done();
  return req;
}

void SyncPullResponse::encode_into(Writer& w) const {
  std::size_t n = 1 + 8 + 4;
  for (const SyncEntry& e : entries) n += 8 + 8 + 4 + e.data.size();
  w.reserve(w.size() + n);
  w.boolean(ok);
  w.u64(total_objects);
  encode_vec(w, entries, [](Writer& w2, const SyncEntry& e) {
    w2.u64(e.id);
    w2.u64(e.version);
    w2.blob(e.data);
  });
}

Bytes SyncPullResponse::encode() const { return encode_message(*this); }

SyncPullResponse SyncPullResponse::decode(const Bytes& b) {
  Reader r(b);
  SyncPullResponse resp;
  resp.ok = r.boolean();
  resp.total_objects = r.u64();
  resp.entries = decode_vec<SyncEntry>(r, [](Reader& r2) {
    SyncEntry e;
    e.id = r2.u64();
    e.version = r2.u64();
    e.data = r2.blob();
    return e;
  });
  r.expect_done();
  return resp;
}

void BatchCommitRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 4 + readset.size() * kReadEntryBytes +
            writeset_bytes(writeset, kBatchWriteHeader));
  w.u64(batch);
  encode_vec(w, readset, encode_read_entry);
  encode_vec(w, writeset, encode_batch_write);
}

Bytes BatchCommitRequest::encode() const { return encode_message(*this); }

BatchCommitRequest BatchCommitRequest::decode(const Bytes& b) {
  Reader r(b);
  BatchCommitRequest req;
  req.batch = r.u64();
  req.readset = decode_vec<CommitReadEntry>(r, decode_read_entry);
  req.writeset = decode_vec<BatchWriteEntry>(r, decode_batch_write);
  r.expect_done();
  return req;
}

void BatchVoteResponse::encode_into(Writer& w) const {
  w.reserve(w.size() + 1 + 4 + stale.size() * 8);
  w.boolean(commit);
  encode_vec(w, stale, [](Writer& w2, ObjectId id) { w2.u64(id); });
}

Bytes BatchVoteResponse::encode() const { return encode_message(*this); }

BatchVoteResponse BatchVoteResponse::decode(const Bytes& b) {
  Reader r(b);
  BatchVoteResponse v;
  v.commit = r.boolean();
  v.stale = decode_vec<ObjectId>(r, [](Reader& r2) { return r2.u64(); });
  r.expect_done();
  return v;
}

void BatchCommitConfirm::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 1 + writeset_bytes(writeset, kBatchWriteHeader));
  w.u64(batch);
  w.boolean(commit);
  encode_vec(w, writeset, encode_batch_write);
}

Bytes BatchCommitConfirm::encode() const { return encode_message(*this); }

BatchCommitConfirm BatchCommitConfirm::decode(const Bytes& b) {
  Reader r(b);
  BatchCommitConfirm c;
  c.batch = r.u64();
  c.commit = r.boolean();
  c.writeset = decode_vec<BatchWriteEntry>(r, decode_batch_write);
  r.expect_done();
  return c;
}

void TxnStatusRequest::encode_into(Writer& w) const {
  w.reserve(w.size() + 8);
  w.u64(txn);
}

Bytes TxnStatusRequest::encode() const { return encode_message(*this); }

TxnStatusRequest TxnStatusRequest::decode(const Bytes& b) {
  Reader r(b);
  TxnStatusRequest req;
  req.txn = r.u64();
  r.expect_done();
  return req;
}

void TxnStatusResponse::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 1 + 4);
  w.u64(txn);
  w.u8(static_cast<std::uint8_t>(status));
  w.u32(epoch);
}

Bytes TxnStatusResponse::encode() const { return encode_message(*this); }

TxnStatusResponse TxnStatusResponse::decode(const Bytes& b) {
  Reader r(b);
  TxnStatusResponse resp;
  resp.txn = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(TxnStatus::kPrepared)) {
    throw SerdeError("unknown TxnStatus");
  }
  resp.status = static_cast<TxnStatus>(status);
  resp.epoch = r.u32();
  r.expect_done();
  return resp;
}

void CommitConfirm::encode_into(Writer& w) const {
  w.reserve(w.size() + 8 + 1 + writeset_bytes(writeset, kWriteEntryHeader));
  w.u64(txn);
  w.boolean(commit);
  encode_vec(w, writeset, encode_write_entry);
}

Bytes CommitConfirm::encode() const { return encode_message(*this); }

CommitConfirm CommitConfirm::decode(const Bytes& b) {
  Reader r(b);
  CommitConfirm c;
  c.txn = r.u64();
  c.commit = r.boolean();
  c.writeset = decode_vec<CommitWriteEntry>(r, decode_write_entry);
  r.expect_done();
  return c;
}

}  // namespace qrdtm::core
