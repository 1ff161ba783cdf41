#include "apps/tls.h"

namespace caya {

namespace {
constexpr std::uint8_t kRecordHandshake = 0x16;
constexpr std::uint8_t kHandshakeClientHello = 0x01;
constexpr std::uint8_t kHandshakeServerHello = 0x02;
constexpr std::uint16_t kTls12 = 0x0303;
constexpr std::uint16_t kExtServerName = 0x0000;

void put_u24(ByteWriter& w, std::uint32_t v) {
  w.u8(static_cast<std::uint8_t>(v >> 16 & 0xff));
  w.u16(static_cast<std::uint16_t>(v & 0xffff));
}
}  // namespace

Bytes build_client_hello(std::string_view sni) {
  // Sizes, innermost first: the server_name extension body, the extension,
  // the ClientHello body, the handshake message.
  const std::size_t name_len = 2 + 1 + 2 + sni.size();
  const std::size_t ext_len = 4 + name_len;
  const std::size_t body_len = 2 + 32 + 1 + 2 + 4 + 1 + 1 + 2 + ext_len;
  const std::size_t handshake_len = 4 + body_len;

  ByteWriter w;
  w.reserve(5 + handshake_len);
  w.u8(kRecordHandshake);
  w.u16(kTls12);
  w.u16(static_cast<std::uint16_t>(handshake_len));
  w.u8(kHandshakeClientHello);
  put_u24(w, static_cast<std::uint32_t>(body_len));
  w.u16(kTls12);
  for (int i = 0; i < 32; ++i) w.u8(static_cast<std::uint8_t>(i));  // random
  w.u8(0);       // session id length
  w.u16(4);      // cipher suites length
  w.u16(0x1301);  // TLS_AES_128_GCM_SHA256
  w.u16(0xc02f);  // ECDHE-RSA-AES128-GCM-SHA256
  w.u8(1);       // compression methods length
  w.u8(0);       // null compression
  w.u16(static_cast<std::uint16_t>(ext_len));
  w.u16(kExtServerName);
  w.u16(static_cast<std::uint16_t>(name_len));
  w.u16(static_cast<std::uint16_t>(sni.size() + 3));  // server name list
  w.u8(0);                                            // type: host_name
  w.u16(static_cast<std::uint16_t>(sni.size()));
  w.raw(sni);
  return w.take();
}

Bytes build_server_hello() {
  const std::size_t body_len = 2 + 32 + 1 + 2 + 1 + 2;
  const std::size_t handshake_len = 4 + body_len;

  ByteWriter w;
  w.reserve(5 + handshake_len);
  w.u8(kRecordHandshake);
  w.u16(kTls12);
  w.u16(static_cast<std::uint16_t>(handshake_len));
  w.u8(kHandshakeServerHello);
  put_u24(w, static_cast<std::uint32_t>(body_len));
  w.u16(kTls12);
  for (int i = 0; i < 32; ++i) w.u8(0xa5);  // random
  w.u8(0);                                  // session id length
  w.u16(0x1301);                            // chosen cipher
  w.u8(0);                                  // null compression
  w.u16(0);                                 // no extensions
  return w.take();
}

std::optional<std::string_view> parse_sni(
    std::span<const std::uint8_t> stream) {
  try {
    ByteReader r(stream);
    if (r.u8() != kRecordHandshake) return std::nullopt;
    (void)r.u16();  // record version
    const std::uint16_t record_len = r.u16();
    if (record_len > r.remaining()) return std::nullopt;  // truncated record
    if (r.u8() != kHandshakeClientHello) return std::nullopt;
    r.skip(3);      // handshake length
    (void)r.u16();  // client version
    r.skip(32);     // random
    const std::uint8_t session_len = r.u8();
    r.skip(session_len);
    const std::uint16_t cipher_len = r.u16();
    r.skip(cipher_len);
    const std::uint8_t compression_len = r.u8();
    r.skip(compression_len);
    const std::uint16_t ext_total = r.u16();
    std::size_t consumed = 0;
    while (consumed + 4 <= ext_total) {
      const std::uint16_t ext_type = r.u16();
      const std::uint16_t ext_len = r.u16();
      consumed += 4;
      if (ext_type == kExtServerName) {
        (void)r.u16();  // server name list length
        (void)r.u8();   // name type
        const std::uint16_t name_len = r.u16();
        const std::size_t at = r.pos();
        r.skip(name_len);
        return text_view(stream.subspan(at, name_len));
      }
      r.skip(ext_len);
      consumed += ext_len;
    }
    return std::nullopt;
  } catch (const ShortReadError&) {
    return std::nullopt;
  }
}

}  // namespace caya
