// The one byte path under everything src/storage puts on disk: the CRC frame
// shared by WAL records and the checkpoint body, a whole-file read, a checked
// write loop and the atomic file replace behind checkpoints and the NODE
// stamp.
//
// Frame layout (little-endian, see DESIGN.md §9):
//
//   u32 payload_len | u32 crc32(payload) | payload
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/serial.hpp"

namespace bft::storage {

constexpr std::size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

/// Appends one frame whose payload is the concatenation of `payload_parts`
/// (each part is copied once, straight into `out`).
void append_frame(Writer& out, std::initializer_list<ByteView> payload_parts);

/// True when `file` starts with `magic`.
bool has_magic(ByteView file, ByteView magic);

/// Decodes the frame at `in`'s position and returns its payload (a view into
/// `in`'s input), advancing `in` past the frame. Returns nullopt and leaves
/// `in` where it was when the header is short, the length exceeds
/// `max_payload` or the remaining input, or the CRC does not match.
std::optional<ByteView> read_frame(Reader& in,
                                   std::uint32_t max_payload = UINT32_MAX);

/// Reads the whole file at `path`; nullopt when it cannot be opened or read.
std::optional<Bytes> read_file(const std::string& path);

/// Writes all of `data` to `fd`, riding out short writes and EINTR.
Status write_all(int fd, ByteView data);

/// Atomically replaces `path` with `data`: writes `path`.tmp, fsyncs and
/// closes it, renames it over `path` and fsyncs the directory. Fails if any
/// step does; a crash at any point leaves either the old or the new file.
Status replace_file(const std::string& path, ByteView data);

}  // namespace bft::storage
