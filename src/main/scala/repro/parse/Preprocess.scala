package repro.parse

/** Message preprocessing shared by every parser.
  *
  * Implements the paper's recommended preliminary step (§IV): extract
  * structured (JSON) data concatenated to the free text *before* parsing,
  * which shortens messages and raises template-discovery rates. No
  * human-crafted variable masking is applied: removing that expert step
  * is the automation goal the paper sets.
  */
object Preprocess {

  /** Space tokenization — the paper's token definition (§IV). */
  def tokenize(message: String): Vector[String] =
    message.trim.split("\\s+").filter(_.nonEmpty).toVector

  /** Split a message into (free text, structured payload string).
    * Only a trailing `{...}` block is treated as structured data, the
    * common "API-like service" pattern the paper describes.
    *
    * One linear scan that returns what the first match of the regex
    * `\s*(\{.*\})\s*$` would (payload = group 1, free text = the part
    * before the match, none when the match starts the message); the regex
    * itself backtracks quadratically on long runs of `{` or whitespace.
    * The payload ends at the last non-whitespace character, which must be
    * `}`; it starts at the first `{` after the last line terminator before
    * that (`.` does not cross one), and the free text ends where the
    * whitespace before that `{` starts.
    */
  def extractStructured(message: String): (String, Option[String]) = {
    val n = message.length
    // `$` may also match before one final U+0085, U+2028 or U+2029
    val end =
      if (n > 0 && isLineEnd(message.charAt(n - 1)) && !isSpace(message.charAt(n - 1))) n - 1
      else n
    var close = end - 1
    while (close >= 0 && isSpace(message.charAt(close))) close -= 1
    var open = -1
    if (close >= 0 && message.charAt(close) == '}') {
      var i = close - 1
      while (i >= 0 && !isLineEnd(message.charAt(i))) {
        if (message.charAt(i) == '{') open = i
        i -= 1
      }
    }
    var start = open
    while (start > 0 && isSpace(message.charAt(start - 1))) start -= 1
    if (start > 0) (message.substring(0, start).trim, Some(message.substring(open, close + 1)))
    else (message.trim, None)
  }

  /** regex `\s` */
  private def isSpace(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000B' || c == '\f' || c == '\r'

  /** the line terminators regex `.` does not match */
  private def isLineEnd(c: Char): Boolean =
    c == '\n' || c == '\r' || c == '\u0085' || c == '\u2028' || c == '\u2029'

  private val JsonPair = """"([^"]+)"\s*:\s*"?([^,}"]*)"?""".r

  /** Shallow key→value extraction from a flat JSON payload. */
  def parsePayload(payload: String): Seq[(String, String)] =
    JsonPair.findAllMatchIn(payload).map(m => (m.group(1), m.group(2).trim)).toSeq

  private val Num    = """^\d+(\.\d+)?$""".r
  private val Ip     = """^/?\d{1,3}(\.\d{1,3}){3}(:\d+)?,?$""".r
  private val HexId  = """^(blk|vol|req|i)[-_][\w-]+$""".r

  /** Does the token look like a variable (number, IP, id)? Used for
    * Drain's digit-aware tree descent and by the semantic matcher.
    */
  def looksVariable(tok: String): Boolean = {
    val t = tok.stripSuffix(",")
    Num.matches(t) || Ip.matches(t) || HexId.matches(t) || t.exists(_.isDigit)
  }
}
