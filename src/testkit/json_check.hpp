// Strict RFC 8259 JSON validation for tests.
//
// Every JSON body the telemetry plane serves must be well-formed whatever
// the label text, so tests run bodies through json_error() instead of
// probing them with find(). The grammar is RFC 8259's, read strictly:
// exactly one value with optional surrounding whitespace, no raw byte
// below 0x20 inside a string, only the eight escapes plus \uXXXX, no
// trailing commas, no leading zeros, no trailing data. Bytes >= 0x80 pass
// through unchecked (UTF-8 well-formedness is out of scope).
#pragma once

#include <string>
#include <string_view>

namespace pdc::testkit {

/// Empty when `text` is one well-formed JSON value; otherwise the first
/// violation and its byte offset ("raw control byte in a string at 7").
[[nodiscard]] std::string json_error(std::string_view text);

}  // namespace pdc::testkit
