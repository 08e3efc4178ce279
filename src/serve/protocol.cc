#include "serve/protocol.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>

namespace ips::serve {

namespace {

// Little-endian append/read primitives. Explicit byte packing so the wire
// format is identical on every host.

void AppendU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendDouble(std::vector<uint8_t>& out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendString(std::vector<uint8_t>& out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Sequential reader over a payload span; every Read* fails on overrun and
/// poisons the reader so one check at the end suffices.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  bool ReadU16(uint16_t* v) {
    if (!Require(2)) return false;
    *v = static_cast<uint16_t>(data_[pos_]) |
         static_cast<uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (!Require(4)) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (!Require(8)) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len) || !Require(len)) return false;
    s->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  /// A declared element count must fit in the remaining bytes at
  /// `min_bytes_each` apiece, or the payload is corrupt -- checked before
  /// any reserve so hostile counts cannot drive allocations.
  bool ReadCount(uint32_t* count, size_t min_bytes_each) {
    if (!ReadU32(count)) return false;
    return static_cast<size_t>(*count) * min_bytes_each <= Remaining();
  }

  size_t Remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

bool ReadExact(int fd, uint8_t* buf, size_t n, bool* clean_eof,
               std::string* error) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) {
      if (clean_eof != nullptr) *clean_eof = got == 0;
      if (error != nullptr) {
        *error = got == 0 ? "" : "connection closed mid-frame";
      }
      return false;
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (clean_eof != nullptr) *clean_eof = false;
      if (error != nullptr) {
        *error = std::string("read failed: ") + std::strerror(errno);
      }
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

// send(MSG_NOSIGNAL) rather than write(): a peer that hung up must cost
// this connection an EPIPE error, not the whole process a SIGPIPE (the
// daemon does not ignore the signal).
bool WriteAll(int fd, const uint8_t* buf, size_t n, std::string* error) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t w = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = std::string("write failed: ") + std::strerror(errno);
      }
      return false;
    }
    sent += static_cast<size_t>(w);
  }
  return true;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(const Frame& frame) {
  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + frame.payload.size());
  out.insert(out.end(), kMagic, kMagic + 4);
  AppendU16(out, kProtocolVersion);
  AppendU16(out, static_cast<uint16_t>(frame.op));
  AppendU32(out, static_cast<uint32_t>(frame.payload.size()));
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  return out;
}

DecodeStatus DecodeFrame(std::span<const uint8_t> data, Frame* out,
                         size_t* consumed) {
  if (data.size() < kHeaderBytes) {
    // A short prefix that already contradicts the magic is malformed, not
    // "need more": nothing appended later can repair it.
    for (size_t i = 0; i < data.size() && i < 4; ++i) {
      if (data[i] != kMagic[i]) return DecodeStatus::kMalformed;
    }
    return DecodeStatus::kNeedMore;
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    return DecodeStatus::kMalformed;
  }
  PayloadReader header(data.subspan(4, kHeaderBytes - 4));
  uint16_t version = 0, op = 0;
  uint32_t payload_len = 0;
  header.ReadU16(&version);
  header.ReadU16(&op);
  header.ReadU32(&payload_len);
  if (version != kProtocolVersion) return DecodeStatus::kMalformed;
  if (payload_len > kMaxPayloadBytes) return DecodeStatus::kMalformed;
  if (data.size() < kHeaderBytes + payload_len) return DecodeStatus::kNeedMore;
  out->op = static_cast<FrameOp>(op);
  out->payload.assign(data.begin() + kHeaderBytes,
                      data.begin() + kHeaderBytes + payload_len);
  if (consumed != nullptr) *consumed = kHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

std::vector<uint8_t> EncodeClassifyRequest(const ClassifyRequest& req) {
  std::vector<uint8_t> out;
  AppendString(out, req.model);
  AppendU32(out, static_cast<uint32_t>(req.series.size()));
  for (const std::vector<double>& s : req.series) {
    AppendU32(out, static_cast<uint32_t>(s.size()));
    for (double v : s) AppendDouble(out, v);
  }
  return out;
}

bool DecodeClassifyRequest(std::span<const uint8_t> payload,
                           ClassifyRequest* out) {
  PayloadReader in(payload);
  if (!in.ReadString(&out->model)) return false;
  uint32_t count = 0;
  if (!in.ReadCount(&count, /*min_bytes_each=*/4)) return false;
  out->series.clear();
  out->series.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!in.ReadCount(&len, /*min_bytes_each=*/8)) return false;
    std::vector<double> values(len);
    for (uint32_t j = 0; j < len; ++j) {
      if (!in.ReadDouble(&values[j])) return false;
    }
    out->series.push_back(std::move(values));
  }
  return in.AtEnd();
}

std::vector<uint8_t> EncodeClassifyResponse(const ClassifyResponse& resp) {
  std::vector<uint8_t> out;
  AppendU32(out, resp.model_version);
  AppendU32(out, static_cast<uint32_t>(resp.labels.size()));
  for (int32_t label : resp.labels) {
    AppendU32(out, static_cast<uint32_t>(label));
  }
  return out;
}

bool DecodeClassifyResponse(std::span<const uint8_t> payload,
                            ClassifyResponse* out) {
  PayloadReader in(payload);
  if (!in.ReadU32(&out->model_version)) return false;
  uint32_t count = 0;
  if (!in.ReadCount(&count, /*min_bytes_each=*/4)) return false;
  out->labels.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t v = 0;
    if (!in.ReadU32(&v)) return false;
    out->labels[i] = static_cast<int32_t>(v);
  }
  return in.AtEnd();
}

std::vector<uint8_t> EncodeReloadRequest(const ReloadRequest& req) {
  std::vector<uint8_t> out;
  AppendString(out, req.model);
  return out;
}

bool DecodeReloadRequest(std::span<const uint8_t> payload,
                         ReloadRequest* out) {
  PayloadReader in(payload);
  return in.ReadString(&out->model) && in.AtEnd();
}

std::vector<uint8_t> EncodeReloadResponse(const ReloadResponse& resp) {
  std::vector<uint8_t> out;
  AppendU32(out, resp.model_version);
  return out;
}

bool DecodeReloadResponse(std::span<const uint8_t> payload,
                          ReloadResponse* out) {
  PayloadReader in(payload);
  return in.ReadU32(&out->model_version) && in.AtEnd();
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp) {
  std::vector<uint8_t> out;
  AppendString(out, resp.json);
  return out;
}

bool DecodeStatsResponse(std::span<const uint8_t> payload,
                         StatsResponse* out) {
  PayloadReader in(payload);
  return in.ReadString(&out->json) && in.AtEnd();
}

std::vector<uint8_t> EncodeHealthResponse(const HealthResponse& resp) {
  std::vector<uint8_t> out;
  AppendU32(out, resp.model_count);
  return out;
}

bool DecodeHealthResponse(std::span<const uint8_t> payload,
                          HealthResponse* out) {
  PayloadReader in(payload);
  return in.ReadU32(&out->model_count) && in.AtEnd();
}

std::vector<uint8_t> EncodeErrorFrame(const ErrorFrame& err) {
  std::vector<uint8_t> out;
  AppendU32(out, static_cast<uint32_t>(err.code));
  AppendString(out, err.message);
  return out;
}

bool DecodeErrorFrame(std::span<const uint8_t> payload, ErrorFrame* out) {
  PayloadReader in(payload);
  uint32_t code = 0;
  if (!in.ReadU32(&code) || !in.ReadString(&out->message) || !in.AtEnd()) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  return true;
}

std::optional<Frame> ReadFrame(int fd, std::string* error) {
  uint8_t header[kHeaderBytes];
  bool clean_eof = false;
  if (!ReadExact(fd, header, kHeaderBytes, &clean_eof, error)) {
    return std::nullopt;
  }
  if (std::memcmp(header, kMagic, 4) != 0) {
    if (error != nullptr) *error = "bad frame magic";
    return std::nullopt;
  }
  PayloadReader in(std::span<const uint8_t>(header + 4, kHeaderBytes - 4));
  uint16_t version = 0, op = 0;
  uint32_t payload_len = 0;
  in.ReadU16(&version);
  in.ReadU16(&op);
  in.ReadU32(&payload_len);
  if (version != kProtocolVersion) {
    if (error != nullptr) *error = "unsupported protocol version";
    return std::nullopt;
  }
  if (payload_len > kMaxPayloadBytes) {
    if (error != nullptr) *error = "oversized frame payload";
    return std::nullopt;
  }
  Frame frame;
  frame.op = static_cast<FrameOp>(op);
  frame.payload.resize(payload_len);
  if (payload_len > 0 &&
      !ReadExact(fd, frame.payload.data(), payload_len, nullptr, error)) {
    return std::nullopt;
  }
  return frame;
}

bool WriteFrame(int fd, const Frame& frame, std::string* error) {
  const std::vector<uint8_t> bytes = EncodeFrame(frame);
  return WriteAll(fd, bytes.data(), bytes.size(), error);
}

}  // namespace ips::serve
