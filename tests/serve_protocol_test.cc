// Wire-protocol tests (serve/protocol.h): golden byte fixtures pin the
// on-wire layout of every frame type (so a foreign-language client written
// against docs/serving.md interoperates), encode/decode round-trips,
// hostile-payload rejection, and a loopback smoke test against a real
// server: classify / reload / stats / health plus the unknown-op contract
// (error frame, connection stays usable) and peers that hang up before
// reading their reply.

#include "serve/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/ucr_loader.h"
#include "ips/pipeline.h"
#include "ips/serialization.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/log_rotate.h"
#include "serve/model_registry.h"
#include "serve/server.h"

namespace ips::serve {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<uint8_t> out;
  for (int v : values) out.push_back(static_cast<uint8_t>(v));
  return out;
}

// ------------------------------------------------------------- goldens
// Layout spelled out in serve/protocol.h: 12-byte header ("IPSF", u16
// version, u16 op, u32 payload length), then the op-specific payload, all
// little-endian, doubles as IEEE-754 bit patterns.

TEST(ServeProtocolTest, GoldenClassifyRequestFrame) {
  ClassifyRequest req;
  req.model = "m";
  req.series = {{1.0}, {-2.5, 0.0}};
  Frame frame;
  frame.op = FrameOp::kClassifyRequest;
  frame.payload = EncodeClassifyRequest(req);

  const std::vector<uint8_t> expected = Bytes({
      'I', 'P', 'S', 'F',       // magic
      0x01, 0x00,               // protocol version 1
      0x01, 0x00,               // op 1 = kClassifyRequest
      0x29, 0x00, 0x00, 0x00,   // payload: 41 bytes
      0x01, 0x00, 0x00, 0x00, 'm',  // model "m"
      0x02, 0x00, 0x00, 0x00,   // 2 series
      0x01, 0x00, 0x00, 0x00,   // series 0: 1 value
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // 1.0
      0x02, 0x00, 0x00, 0x00,   // series 1: 2 values
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0,  // -2.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 0.0
  });
  EXPECT_EQ(EncodeFrame(frame), expected);

  Frame decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(expected, &decoded, &consumed), DecodeStatus::kOk);
  EXPECT_EQ(consumed, expected.size());
  ClassifyRequest restored;
  ASSERT_TRUE(DecodeClassifyRequest(decoded.payload, &restored));
  EXPECT_EQ(restored.model, "m");
  EXPECT_EQ(restored.series, req.series);  // bit-exact doubles
}

TEST(ServeProtocolTest, GoldenClassifyResponseFrame) {
  ClassifyResponse resp;
  resp.model_version = 3;
  resp.labels = {0, -1};
  Frame frame;
  frame.op = FrameOp::kClassifyResponse;
  frame.payload = EncodeClassifyResponse(resp);

  const std::vector<uint8_t> expected = Bytes({
      'I', 'P', 'S', 'F', 0x01, 0x00,
      0x02, 0x00,              // op 2 = kClassifyResponse
      0x10, 0x00, 0x00, 0x00,  // 16-byte payload
      0x03, 0x00, 0x00, 0x00,  // model_version 3
      0x02, 0x00, 0x00, 0x00,  // 2 labels
      0x00, 0x00, 0x00, 0x00,  // label 0
      0xFF, 0xFF, 0xFF, 0xFF,  // label -1 (two's complement)
  });
  EXPECT_EQ(EncodeFrame(frame), expected);
}

TEST(ServeProtocolTest, GoldenReloadAndHealthAndErrorFrames) {
  Frame reload_req;
  reload_req.op = FrameOp::kReloadRequest;
  reload_req.payload = EncodeReloadRequest(ReloadRequest{"demo"});
  EXPECT_EQ(EncodeFrame(reload_req),
            Bytes({'I', 'P', 'S', 'F', 0x01, 0x00, 0x03, 0x00,
                   0x08, 0x00, 0x00, 0x00,
                   0x04, 0x00, 0x00, 0x00, 'd', 'e', 'm', 'o'}));

  Frame reload_resp;
  reload_resp.op = FrameOp::kReloadResponse;
  reload_resp.payload = EncodeReloadResponse(ReloadResponse{7});
  EXPECT_EQ(EncodeFrame(reload_resp),
            Bytes({'I', 'P', 'S', 'F', 0x01, 0x00, 0x04, 0x00,
                   0x04, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00}));

  Frame health;
  health.op = FrameOp::kHealthResponse;
  health.payload = EncodeHealthResponse(HealthResponse{2});
  EXPECT_EQ(EncodeFrame(health),
            Bytes({'I', 'P', 'S', 'F', 0x01, 0x00, 0x08, 0x00,
                   0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00}));

  Frame error;
  error.op = FrameOp::kError;
  error.payload =
      EncodeErrorFrame(ErrorFrame{ErrorCode::kUnknownOp, "nope"});
  EXPECT_EQ(EncodeFrame(error),
            Bytes({'I', 'P', 'S', 'F', 0x01, 0x00, 0x09, 0x00,
                   0x0C, 0x00, 0x00, 0x00,
                   0x02, 0x00, 0x00, 0x00,  // code 2 = kUnknownOp
                   0x04, 0x00, 0x00, 0x00, 'n', 'o', 'p', 'e'}));
}

// ---------------------------------------------------------- round trips

TEST(ServeProtocolTest, EveryPayloadTypeRoundTrips) {
  ClassifyRequest creq;
  creq.model = "a model with spaces";
  creq.series = {{1e-300, -0.0, 3.141592653589793}, {}, {42.0}};
  ClassifyRequest creq2;
  ASSERT_TRUE(DecodeClassifyRequest(EncodeClassifyRequest(creq), &creq2));
  EXPECT_EQ(creq2.model, creq.model);
  EXPECT_EQ(creq2.series, creq.series);

  ClassifyResponse cresp;
  cresp.model_version = 0xDEADBEEF;
  cresp.labels = {-2, -1, 0, 1, 2};
  ClassifyResponse cresp2;
  ASSERT_TRUE(DecodeClassifyResponse(EncodeClassifyResponse(cresp), &cresp2));
  EXPECT_EQ(cresp2.model_version, cresp.model_version);
  EXPECT_EQ(cresp2.labels, cresp.labels);

  ReloadRequest rreq{"x"};
  ReloadRequest rreq2;
  ASSERT_TRUE(DecodeReloadRequest(EncodeReloadRequest(rreq), &rreq2));
  EXPECT_EQ(rreq2.model, "x");

  StatsResponse stats{R"({"uptime_seconds": 1.5})"};
  StatsResponse stats2;
  ASSERT_TRUE(DecodeStatsResponse(EncodeStatsResponse(stats), &stats2));
  EXPECT_EQ(stats2.json, stats.json);

  ErrorFrame err{ErrorCode::kReloadFailed, "disk on fire"};
  ErrorFrame err2;
  ASSERT_TRUE(DecodeErrorFrame(EncodeErrorFrame(err), &err2));
  EXPECT_EQ(err2.code, ErrorCode::kReloadFailed);
  EXPECT_EQ(err2.message, err.message);
}

// ------------------------------------------------------- hostile input

TEST(ServeProtocolTest, StreamingDecodeStates) {
  Frame frame;
  frame.op = FrameOp::kHealthRequest;
  const std::vector<uint8_t> wire = EncodeFrame(frame);

  Frame out;
  size_t consumed = 0;
  // Every strict prefix that matches the magic so far: kNeedMore.
  for (size_t n = 0; n < wire.size(); ++n) {
    EXPECT_EQ(DecodeFrame(std::span(wire.data(), n), &out, &consumed),
              DecodeStatus::kNeedMore)
        << n;
  }
  // A first byte contradicting the magic is malformed immediately, even
  // with just one byte of data -- no amount of further input repairs it.
  EXPECT_EQ(DecodeFrame(Bytes({'X'}), &out, &consumed),
            DecodeStatus::kMalformed);
  std::vector<uint8_t> bad_magic = wire;
  bad_magic[3] = 'x';
  EXPECT_EQ(DecodeFrame(bad_magic, &out, &consumed), DecodeStatus::kMalformed);
  std::vector<uint8_t> bad_version = wire;
  bad_version[4] = 0x77;
  EXPECT_EQ(DecodeFrame(bad_version, &out, &consumed),
            DecodeStatus::kMalformed);
  // A header declaring more than kMaxPayloadBytes is corruption, not an
  // allocation request.
  std::vector<uint8_t> oversized = wire;
  oversized[8] = 0xFF;
  oversized[9] = 0xFF;
  oversized[10] = 0xFF;
  oversized[11] = 0x7F;
  EXPECT_EQ(DecodeFrame(oversized, &out, &consumed), DecodeStatus::kMalformed);
}

TEST(ServeProtocolTest, HostilePayloadsRejected) {
  ClassifyRequest out;
  // Declared series count far exceeding the bytes present.
  std::vector<uint8_t> hostile = Bytes({
      0x01, 0x00, 0x00, 0x00, 'm',
      0xFF, 0xFF, 0xFF, 0xFF,  // 4 billion series
  });
  EXPECT_FALSE(DecodeClassifyRequest(hostile, &out));

  // Declared series length exceeding the bytes present.
  hostile = Bytes({
      0x01, 0x00, 0x00, 0x00, 'm',
      0x01, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0x0F,  // 268M doubles in an 8-byte payload
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
  });
  EXPECT_FALSE(DecodeClassifyRequest(hostile, &out));

  // Trailing garbage after a well-formed payload.
  std::vector<uint8_t> trailing =
      EncodeClassifyRequest(ClassifyRequest{"m", {{1.0}}});
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeClassifyRequest(trailing, &out));

  // Truncations of a well-formed payload.
  const std::vector<uint8_t> good =
      EncodeClassifyRequest(ClassifyRequest{"m", {{1.0, 2.0}}});
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(
        DecodeClassifyRequest(std::span(good.data(), n), &out))
        << "decoded at truncation " << n;
  }
}

// ------------------------------------------------------ loopback smoke

class LoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    namespace fs = std::filesystem;
    dir_ = fs::temp_directory_path() /
           ("ips_proto_" + std::to_string(::getpid()));
    fs::create_directories(dir_);

    GeneratorSpec spec;
    spec.name = "proto";
    spec.train_size = 12;
    spec.test_size = 8;
    spec.length = 64;
    data_ = GenerateDataset(spec);

    IpsOptions options;
    options.sample_count = 4;
    options.sample_size = 3;
    options.length_ratios = {0.2};
    options.shapelets_per_class = 3;
    IpsClassifier clf(options);
    clf.Fit(data_.train);
    ASSERT_TRUE(SaveRunResult(clf.result(), (dir_ / "model.ipsrun").string()));
    ASSERT_TRUE(SaveUcrFile(data_.train, (dir_ / "train.tsv").string()));

    std::string error;
    ASSERT_EQ(registry_.Load("demo",
                             ModelSource{(dir_ / "model.ipsrun").string(),
                                         (dir_ / "train.tsv").string(),
                                         options},
                             &error),
              1u)
        << error;

    server_ = std::make_unique<Server>(&registry_, ServerOptions{});
    ASSERT_TRUE(server_->Start(&error)) << error;
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port(), &error))
        << error;
  }

  void TearDown() override {
    client_.Close();
    if (server_ != nullptr) server_->Stop();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  TrainTestSplit data_;
  ModelRegistry registry_;
  std::unique_ptr<Server> server_;
  Client client_;
};

TEST_F(LoopbackTest, ClassifyMatchesOfflinePredictBatch) {
  std::vector<std::vector<double>> batch;
  for (const TimeSeries& s : data_.test.series()) batch.push_back(s.values);

  std::string error;
  const auto response = client_.Classify("demo", batch, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->model_version, 1u);

  const std::vector<int> offline =
      registry_.Get("demo")->Classify(data_.test);
  ASSERT_EQ(response->labels.size(), offline.size());
  for (size_t i = 0; i < offline.size(); ++i) {
    EXPECT_EQ(response->labels[i], offline[i]) << "series " << i;
  }
}

// A frame reaches an idle server's admission queue whole, so a 64-series
// classify (the default max_batch) runs as one 64-series batch. The stats
// frame counts each latency histogram once per series, batch or reply.
TEST_F(LoopbackTest, WholeFrameIsOneBatchOnAnIdleServer) {
  std::string error;
  const auto stats = [&] {
    const std::string text = client_.Stats(&error).value_or("");
    std::optional<obs::JsonValue> doc = obs::JsonValue::Parse(text);
    EXPECT_TRUE(doc.has_value()) << error << text;
    return doc.value_or(obs::JsonValue::Object());
  };
  const auto count = [](const obs::JsonValue& doc, const std::string& key) {
    return doc.Get(key).Get("count").AsUint64();
  };

  std::vector<std::vector<double>> batch;
  for (size_t i = 0; i < 64; ++i) {
    batch.push_back(data_.test[i % data_.test.size()].values);
  }
  const obs::JsonValue before = stats();
  const auto response = client_.Classify("demo", batch, &error);
  ASSERT_TRUE(response.has_value()) << error;
  const obs::JsonValue after = stats();

  const std::vector<int> offline =
      registry_.Get("demo")->Classify(data_.test);
  ASSERT_EQ(response->labels.size(), 64u);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(response->labels[i], offline[i % offline.size()]) << i;
  }
  EXPECT_EQ(after.Get("batch_size").Get("max").AsUint64(), 64u);
  EXPECT_EQ(count(after, "batch_size"), count(before, "batch_size") + 1);
  EXPECT_EQ(after.Get("batch_size").Get("sum").AsUint64(),
            before.Get("batch_size").Get("sum").AsUint64() + 64);
  EXPECT_EQ(count(after, "batch_compute_us"),
            count(before, "batch_compute_us") + 1);
  EXPECT_EQ(count(after, "queue_wait_us"), count(before, "queue_wait_us") + 64);
  EXPECT_EQ(count(after, "reply_write_us"), count(before, "reply_write_us") + 1);
  const obs::JsonValue& model_before = before.Get("models").Get("demo");
  const obs::JsonValue& model_after = after.Get("models").Get("demo");
  EXPECT_EQ(model_after.Get("requests").AsUint64(),
            model_before.Get("requests").AsUint64() + 64);
  EXPECT_EQ(count(model_after, "latency_us"),
            count(model_before, "latency_us") + 64);
}

// A closed connection's thread is joined when the next one is accepted,
// so opening and closing connections one after another retains only a
// few handles (the fixture's client, the newest connection and any
// handler still winding down), not one per connection ever served.
TEST_F(LoopbackTest, FinishedConnectionThreadsAreReaped) {
  for (int i = 0; i < 200; ++i) {
    Client client;
    std::string error;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port(), &error))
        << "connection " << i << ": " << error;
    ASSERT_TRUE(client.Health(&error).has_value()) << error;
  }
  EXPECT_LE(server_->retained_connection_threads(), 8u);
}

TEST_F(LoopbackTest, ReloadStatsAndHealth) {
  std::string error;
  const auto health = client_.Health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_EQ(*health, 1u);

  const auto version = client_.Reload("demo", &error);
  ASSERT_TRUE(version.has_value()) << error;
  EXPECT_EQ(*version, 2u);

  const auto stats = client_.Stats(&error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_NE(stats->find("\"models\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"demo\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"uptime_seconds\""), std::string::npos) << *stats;
}

// With an access log, every op writes its line: the parts are numbers and
// strings, joined in order.
TEST_F(LoopbackTest, AccessLogRecordsEveryOp) {
  ServerOptions options;
  options.access_log_path = (dir_ / "access.log").string();
  Server logged(&registry_, options);
  std::string error;
  ASSERT_TRUE(logged.Start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", logged.port(), &error)) << error;
  ASSERT_TRUE(client.Classify("demo", {data_.test[0].values}, &error))
      << error;
  EXPECT_FALSE(client.Classify("nope", {data_.test[0].values}, &error));
  ASSERT_TRUE(client.Reload("demo", &error)) << error;
  ASSERT_TRUE(client.Stats(&error)) << error;
  ASSERT_TRUE(client.Health(&error)) << error;
  client.Close();
  logged.Stop();

  std::ifstream in(options.access_log_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind(
                "op=classify model=demo n=1 version=1 status=ok latency_us=",
                0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1],
            "op=classify model=nope n=1 status=error msg=unknown model "
            "\"nope\"");
  EXPECT_EQ(lines[2], "op=reload model=demo version=2 status=ok");
  EXPECT_EQ(lines[3], "op=stats status=ok");
  EXPECT_EQ(lines[4], "op=health status=ok");
}

TEST_F(LoopbackTest, ErrorFramesNotDroppedConnections) {
  // Unknown op: the server answers kUnknownOp and keeps the connection.
  Frame unknown;
  unknown.op = static_cast<FrameOp>(77);
  std::string error;
  auto reply = client_.RoundTrip(unknown, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  ASSERT_EQ(reply->op, FrameOp::kError);
  ErrorFrame err;
  ASSERT_TRUE(DecodeErrorFrame(reply->payload, &err));
  EXPECT_EQ(err.code, ErrorCode::kUnknownOp);

  // Unknown model and empty batch: explicit errors, same connection.
  EXPECT_FALSE(client_.Classify("no_such_model", {{1.0}}, &error).has_value());
  EXPECT_NE(error.find("unknown model"), std::string::npos) << error;
  EXPECT_FALSE(client_.Classify("demo", {}, &error).has_value());
  EXPECT_NE(error.find("empty"), std::string::npos) << error;

  // A NaN or +Inf anywhere in the frame rejects the whole frame, and
  // serve.errors counts each rejection.
  const obs::Counter& errors =
      obs::MetricsRegistry::Instance().GetCounter("serve.errors");
  const uint64_t errors_before = errors.Value();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(client_.Classify("demo", {{1.0, 2.0}, {1.0, nan}}, &error)
                   .has_value());
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_FALSE(client_.Classify("demo", {{inf, 2.0}}, &error).has_value());
  EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
  EXPECT_EQ(errors.Value() - errors_before, 2u);

  // Malformed payload under a sound header: error frame, not a drop.
  Frame malformed;
  malformed.op = FrameOp::kClassifyRequest;
  malformed.payload = Bytes({0xFF, 0xFF, 0xFF, 0xFF});
  reply = client_.RoundTrip(malformed, &error);
  ASSERT_TRUE(reply.has_value()) << error;
  EXPECT_EQ(reply->op, FrameOp::kError);

  // After all of that, the connection still serves real traffic.
  const auto health = client_.Health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_EQ(*health, 1u);
}

// Opens a raw loopback connection to `port`; -1 on failure.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Closes with a zero linger, so the peer sees an RST: its next read fails
// with ECONNRESET and any later write hits a dead socket at once.
void ResetClose(int fd) {
  const linger abort_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
  ::close(fd);
}

// A client that hangs up before reading its reply must cost only its own
// connection. Each round sends a classify request, or only part of a
// header (the server then fails the read and writes a parting error
// frame), and resets the connection. Writing to the dead socket must fail
// with EPIPE and never raise SIGPIPE: the server does not ignore the
// signal, so it would kill this whole process. The server must then still
// answer a new connection.
TEST_F(LoopbackTest, PeerThatHangsUpBeforeItsReplyLeavesServerServing) {
  ClassifyRequest req;
  req.model = "demo";
  for (const TimeSeries& s : data_.test.series()) req.series.push_back(s.values);
  Frame frame;
  frame.op = FrameOp::kClassifyRequest;
  frame.payload = EncodeClassifyRequest(req);
  const std::vector<uint8_t> request = EncodeFrame(frame);

  for (int round = 0; round < 8; ++round) {
    const int fd = RawConnect(server_->port());
    ASSERT_GE(fd, 0) << "round " << round;
    const size_t len = round % 2 == 0 ? request.size() : 6;
    ASSERT_EQ(::send(fd, request.data(), len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
    ResetClose(fd);
  }

  Client fresh;
  std::string error;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server_->port(), &error)) << error;
  const auto health = fresh.Health(&error);
  ASSERT_TRUE(health.has_value()) << error;
  EXPECT_EQ(*health, 1u);
  const auto response = fresh.Classify("demo", req.series, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->labels.size(), req.series.size());
}

TEST_F(LoopbackTest, ReloadOfUnknownModelFails) {
  std::string error;
  EXPECT_FALSE(client_.Reload("ghost", &error).has_value());
  EXPECT_NE(error.find("unknown model"), std::string::npos) << error;
}

// ------------------------------------------------- access-log rotation

TEST(RotatingLogTest, RotatesAtSizeAndKeepsGenerations) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ips_log_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "access.log").string();

  {
    RotatingLog log(path, /*max_bytes=*/64, /*keep=*/2);
    ASSERT_TRUE(log.enabled());
    // 10 lines of 30+1 bytes: rotations at every other line.
    for (int i = 0; i < 10; ++i) {
      log.Append("line " + std::to_string(i) + std::string(24, 'x'));
    }
    EXPECT_LE(log.current_size(), 64u);
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".1"));
  EXPECT_TRUE(fs::exists(path + ".2"));
  EXPECT_FALSE(fs::exists(path + ".3")) << "kept more than `keep`";

  // Reopening picks the existing size back up (restart-safe threshold):
  // one more line on a near-full file must rotate, not exceed max_bytes.
  {
    RotatingLog log(path, /*max_bytes=*/64, /*keep=*/2);
    while (log.current_size() + 31 <= 64) {
      log.Append("fill " + std::string(25, 'y'));
    }
    const size_t before = log.current_size();
    log.Append("overflow " + std::string(21, 'z'));
    EXPECT_LT(log.current_size(), before + 31) << "did not rotate";
  }
  fs::remove_all(dir);
}

TEST(RotatingLogTest, DisabledLogIsANoOp) {
  RotatingLog log;
  EXPECT_FALSE(log.enabled());
  log.Append("goes nowhere");  // must not crash
  EXPECT_EQ(log.current_size(), 0u);
}

}  // namespace
}  // namespace ips::serve
