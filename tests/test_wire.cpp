// Wire-format tests for the QR protocol messages: round trips, and fuzzing
// the decoders with random/truncated bytes (a replica must reject corrupt
// input with SerdeError, never crash or accept garbage silently).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/wire.h"

namespace qrdtm::core {
namespace {

ReadRequest sample_read_request(Rng& rng) {
  ReadRequest req;
  req.root = rng.next();
  req.mode = static_cast<NestingMode>(rng.below(3));
  req.object = rng.next();
  req.for_write = rng.chance(0.5);
  int n = static_cast<int>(rng.below(8));
  for (int i = 0; i < n; ++i) {
    req.dataset.push_back(DataSetEntry{rng.next(), rng.next(), rng.next(),
                                       static_cast<std::uint32_t>(rng.next()),
                                       rng.next()});
  }
  return req;
}

TEST(Wire, ReadRequestRoundTrip) {
  Rng rng(1);
  for (int iter = 0; iter < 100; ++iter) {
    ReadRequest req = sample_read_request(rng);
    ReadRequest got = ReadRequest::decode(req.encode());
    EXPECT_EQ(got.root, req.root);
    EXPECT_EQ(got.mode, req.mode);
    EXPECT_EQ(got.object, req.object);
    EXPECT_EQ(got.for_write, req.for_write);
    ASSERT_EQ(got.dataset.size(), req.dataset.size());
    for (std::size_t i = 0; i < req.dataset.size(); ++i) {
      EXPECT_EQ(got.dataset[i].id, req.dataset[i].id);
      EXPECT_EQ(got.dataset[i].version, req.dataset[i].version);
      EXPECT_EQ(got.dataset[i].owner, req.dataset[i].owner);
      EXPECT_EQ(got.dataset[i].owner_depth, req.dataset[i].owner_depth);
      EXPECT_EQ(got.dataset[i].owner_chk, req.dataset[i].owner_chk);
    }
  }
}

TEST(Wire, ReadResponseRoundTrip) {
  ReadResponse resp;
  resp.status = ReadStatus::kAbort;
  resp.version = 17;
  resp.data = Bytes{1, 2, 3};
  resp.abort_scope = 42;
  resp.abort_depth = 2;
  resp.abort_chk = 9;
  ReadResponse got = ReadResponse::decode(resp.encode());
  EXPECT_EQ(got.status, resp.status);
  EXPECT_EQ(got.version, resp.version);
  EXPECT_EQ(got.data, resp.data);
  EXPECT_EQ(got.abort_scope, resp.abort_scope);
  EXPECT_EQ(got.abort_depth, resp.abort_depth);
  EXPECT_EQ(got.abort_chk, resp.abort_chk);
}

TEST(Wire, CommitMessagesRoundTrip) {
  CommitRequest req;
  req.txn = 7;
  req.readset = {{1, 2}, {3, 4}};
  req.writeset.push_back(CommitWriteEntry{5, 6, Bytes{9, 9}});
  CommitRequest got = CommitRequest::decode(req.encode());
  EXPECT_EQ(got.txn, 7u);
  ASSERT_EQ(got.readset.size(), 2u);
  EXPECT_EQ(got.readset[1].id, 3u);
  ASSERT_EQ(got.writeset.size(), 1u);
  EXPECT_EQ(got.writeset[0].data, (Bytes{9, 9}));

  CommitConfirm confirm;
  confirm.txn = 8;
  confirm.commit = true;
  confirm.writeset = req.writeset;
  CommitConfirm cgot = CommitConfirm::decode(confirm.encode());
  EXPECT_EQ(cgot.txn, 8u);
  EXPECT_TRUE(cgot.commit);
  ASSERT_EQ(cgot.writeset.size(), 1u);

  VoteResponse vote{true};
  EXPECT_TRUE(VoteResponse::decode(vote.encode()).commit);
}

BatchCommitRequest sample_batch_request() {
  BatchCommitRequest req;
  req.batch = 0x20000000007;
  req.readset = {{1, 2}, {3, 4}};
  req.writeset.push_back(BatchWriteEntry{5, 6, 3, Bytes{9, 9}});
  req.writeset.push_back(BatchWriteEntry{7, 0, 1, Bytes{}});
  return req;
}

TEST(Wire, BatchCommitMessagesRoundTrip) {
  const BatchCommitRequest req = sample_batch_request();
  const BatchCommitRequest got = BatchCommitRequest::decode(req.encode());
  EXPECT_EQ(got.batch, req.batch);
  ASSERT_EQ(got.readset.size(), 2u);
  EXPECT_EQ(got.readset[1].version, 4u);
  ASSERT_EQ(got.writeset.size(), 2u);
  EXPECT_EQ(got.writeset[0].base, 6u);
  EXPECT_EQ(got.writeset[0].steps, 3u);
  EXPECT_EQ(got.writeset[0].data, (Bytes{9, 9}));
  EXPECT_EQ(got.writeset[1].id, 7u);

  const BatchVoteResponse vote{false, {5, 7}};
  const BatchVoteResponse vgot = BatchVoteResponse::decode(vote.encode());
  EXPECT_FALSE(vgot.commit);
  EXPECT_EQ(vgot.stale, (std::vector<ObjectId>{5, 7}));

  const BatchCommitConfirm confirm{req.batch, true, req.writeset};
  const BatchCommitConfirm cgot = BatchCommitConfirm::decode(confirm.encode());
  EXPECT_EQ(cgot.batch, req.batch);
  EXPECT_TRUE(cgot.commit);
  ASSERT_EQ(cgot.writeset.size(), 2u);
  EXPECT_EQ(cgot.writeset[0].steps, 3u);
}

TEST(Wire, TxnStatusMessagesRoundTrip) {
  EXPECT_EQ(TxnStatusRequest::decode(TxnStatusRequest{42}.encode()).txn, 42u);
  for (TxnStatus status : {TxnStatus::kUnknown, TxnStatus::kCommitted,
                           TxnStatus::kAborted, TxnStatus::kPrepared}) {
    const TxnStatusResponse resp{42, status, 7};
    const TxnStatusResponse got = TxnStatusResponse::decode(resp.encode());
    EXPECT_EQ(got.txn, 42u);
    EXPECT_EQ(got.status, status);
    EXPECT_EQ(got.epoch, 7u);
  }
}

// A replica must not act on values the sender could never mean: a batch
// write with zero steps would "commit" version base+0, and a status byte
// outside the enum has no meaning for the termination round.
TEST(Wire, OutOfRangeFieldsAreRejected) {
  BatchCommitRequest req = sample_batch_request();
  req.writeset[1].steps = 0;
  EXPECT_THROW(BatchCommitRequest::decode(req.encode()), SerdeError);
  const BatchCommitConfirm confirm{req.batch, false, req.writeset};
  EXPECT_THROW(BatchCommitConfirm::decode(confirm.encode()), SerdeError);

  Bytes status = TxnStatusResponse{42, TxnStatus::kPrepared, 7}.encode();
  status[8] = 4;  // the status byte follows the 8-byte txn id
  EXPECT_THROW(TxnStatusResponse::decode(status), SerdeError);
}

// Every message a replica decodes, encoded from a valid sample.
std::vector<std::pair<const char*, Bytes>> sample_messages(Rng& rng) {
  CommitRequest creq;
  creq.txn = rng.next();
  creq.readset = {{rng.next(), rng.next()}};
  creq.writeset.push_back(CommitWriteEntry{rng.next(), rng.next(), Bytes{1}});
  BatchCommitRequest breq = sample_batch_request();
  breq.batch = rng.next();
  return {
      {"ReadRequest", sample_read_request(rng).encode()},
      {"CommitRequest", creq.encode()},
      {"BatchCommitRequest", breq.encode()},
      {"BatchVoteResponse", BatchVoteResponse{false, {rng.next()}}.encode()},
      {"BatchCommitConfirm",
       BatchCommitConfirm{breq.batch, true, breq.writeset}.encode()},
      {"TxnStatusRequest", TxnStatusRequest{rng.next()}.encode()},
      {"TxnStatusResponse",
       TxnStatusResponse{rng.next(), TxnStatus::kCommitted, 3}.encode()},
  };
}

// Decode `b` as the message named `kind` (one of sample_messages' names).
void decode_as(const std::string& kind, const Bytes& b) {
  if (kind == "ReadRequest") {
    (void)ReadRequest::decode(b);
  } else if (kind == "CommitRequest") {
    (void)CommitRequest::decode(b);
  } else if (kind == "BatchCommitRequest") {
    (void)BatchCommitRequest::decode(b);
  } else if (kind == "BatchVoteResponse") {
    (void)BatchVoteResponse::decode(b);
  } else if (kind == "BatchCommitConfirm") {
    (void)BatchCommitConfirm::decode(b);
  } else if (kind == "TxnStatusRequest") {
    (void)TxnStatusRequest::decode(b);
  } else {
    (void)TxnStatusResponse::decode(b);
  }
}

// Fuzz: truncations of valid messages must throw SerdeError, never crash.
TEST(WireFuzz, TruncatedMessagesThrow) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    for (const auto& [kind, full] : sample_messages(rng)) {
      for (std::size_t len = 0; len < full.size(); ++len) {
        Bytes cut(full.begin(), full.begin() + len);
        EXPECT_THROW(decode_as(kind, cut), SerdeError)
            << kind << " len " << len << "/" << full.size();
      }
    }
  }
}

// Fuzz: random byte strings either decode (structurally-valid garbage) or
// throw SerdeError; nothing else.
TEST(WireFuzz, RandomBytesNeverCrash) {
  Rng rng(3);
  int decoded = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes junk(rng.below(64), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    try {
      (void)ReadRequest::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    try {
      (void)CommitRequest::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    try {
      (void)ReadResponse::decode(junk);
      ++decoded;
    } catch (const SerdeError&) {
      ++rejected;
    }
    for (const char* kind :
         {"BatchCommitRequest", "BatchVoteResponse", "BatchCommitConfirm",
          "TxnStatusRequest", "TxnStatusResponse"}) {
      try {
        decode_as(kind, junk);
        ++decoded;
      } catch (const SerdeError&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0);
  (void)decoded;  // structurally-valid garbage is acceptable
}

// Fuzz: bit flips in valid messages must not crash the decoder.
TEST(WireFuzz, BitFlipsNeverCrash) {
  Rng rng(4);
  for (int iter = 0; iter < 300; ++iter) {
    Bytes wire = sample_read_request(rng).encode();
    std::size_t pos = rng.below(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
    try {
      (void)ReadRequest::decode(wire);
    } catch (const SerdeError&) {
      // rejected: fine
    }
  }
}

}  // namespace
}  // namespace qrdtm::core
